#!/bin/sh
# Tier-1.5 gate: everything CI enforces, runnable locally in one command.
# Equivalent to `make check`. staticcheck runs only when installed, so the
# gate also works on a minimal Go toolchain.
set -eux

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
fi
go test ./...
go test -race ./internal/core/... ./internal/sim/... ./internal/remote/... ./internal/obs/... ./internal/cluster/... ./internal/history/...
go test -race -count=1 -run 'ThreeWay|Cluster' ./internal/simtest/
go test -race -count=1 -run 'Crash|Checkpoint|Recovery' ./internal/simtest/ ./internal/core/ ./internal/cluster/ ./internal/obs/telemetry/
go test -race -count=1 ./internal/obs/load/
go test -race -count=1 ./internal/obs/stream/ ./internal/history/
go test -race -count=1 -run 'Stream|History|AdminSubHist|Gateway' ./internal/remote/ ./internal/simtest/
go test -run '^$' -bench . -benchtime 1x ./...
