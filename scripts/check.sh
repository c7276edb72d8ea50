#!/bin/sh
# Tier-1.5 gate: everything CI enforces, runnable locally in one command.
# It runs `make check`, the one definition of the gate's steps (build, vet,
# gofmt, staticcheck when installed, tests, -race, the simtest sweep and fuzz
# smokes, the cluster, crash, load and stream gates, and the bench smoke).
set -eux

cd "$(dirname "$0")/.."
exec make check
