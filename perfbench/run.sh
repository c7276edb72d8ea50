#!/usr/bin/env bash
# Builds the server from this checkout and the benchmark program, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-tcp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and the Go caches stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mobieyes-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a mobieyes checkout" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config"

go build -o "$out/mobieyes-server" ./cmd/mobieyes-server >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -bin "$out" -spans "$out/spans.tsv" "$@"
