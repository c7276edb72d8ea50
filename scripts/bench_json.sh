#!/bin/sh
# Emits the PR benchmark set as JSON (BENCH_PR10.json by default): the
# cost-accounting overhead benchmarks of internal/obs/cost (disabled-path
# nil-accountant calls, enabled-path charges, scrape-under-load), the
# instrumentation overhead benchmarks of internal/obs, the causal-tracing
# flight-recorder benchmarks of internal/obs/trace, the telemetry-plane
# benchmarks of internal/obs/telemetry (batch encode/decode, idle collector
# probe, per-heartbeat collect+encode, router-side merge, watchdog round),
# the serial/sharded/clustered uplink throughput benchmarks of
# internal/core — the sharded-vs-clustered delta at 10k/100k objects is the
# router-forwarding overhead — and the open-loop sustained-throughput series
# of internal/obs/load (saturation rate at 10k/100k objects, serial and
# sharded; each iteration is a full load run, so these always run 1x) —
# plus the result-stream benchmarks of internal/obs/stream (per-publish
# fan-out cost at 0/1/16/64 subscribers, and per-event SSE delivery through
# the gateway over loopback) and the history-log append
# benchmarks of internal/history (steady-state and evicting).
# Usage:
#
#   scripts/bench_json.sh [output.json]
#
# Tune BENCHTIME for fidelity vs speed (default 1s; CI smoke uses 1x).
set -eu

OUT="${1:-BENCH_PR10.json}"
BENCHTIME="${BENCHTIME:-1s}"

{
	go test -run '^$' -bench . -benchtime "$BENCHTIME" ./internal/obs/cost/
	go test -run '^$' -bench . -benchtime "$BENCHTIME" ./internal/obs/
	go test -run '^$' -bench . -benchtime "$BENCHTIME" ./internal/obs/trace/
	go test -run '^$' -bench . -benchtime "$BENCHTIME" ./internal/obs/telemetry/
	go test -run '^$' -bench 'BenchmarkUplink(Serial|Sharded|Clustered)(10k|100k)' -benchtime "$BENCHTIME" ./internal/core/
	go test -run '^$' -bench 'BenchmarkSustained' -benchtime 1x ./internal/obs/load/
	go test -run '^$' -bench 'BenchmarkStreamFanOut|BenchmarkGatewayBurst' -benchtime "$BENCHTIME" ./internal/obs/stream/
	go test -run '^$' -bench 'BenchmarkHistoryAppend' -benchtime "$BENCHTIME" ./internal/history/
} | awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns[name] = $3
		order[n++] = name
	}
	END {
		printf "{\n"
		for (i = 0; i < n; i++) {
			name = order[i]
			printf "  \"%s\": %s%s\n", name, ns[name], (i < n-1 ? "," : "")
		}
		printf "}\n"
	}
' > "$OUT"

echo "wrote $OUT:"
cat "$OUT"
