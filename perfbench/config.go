package main

// The benchmark's fixed settings. The rates and the latency limit are
// absolute and must not be re-tuned by a change that claims a gain: they
// were set once, from the commit that introduced the benchmark, at about ¼
// (lo) and ⅔ (hi) of each serving workload's max_rate_ops_s on a 2-vCPU
// Intel Xeon box.

const (
	// numObjects and numQueries are the paper's Table-1 population.
	numObjects = 10000
	numQueries = 1000

	// latencyLimitMs is the p99 op-latency limit a sweep rate must meet.
	latencyLimitMs = 20.0
	// sweepRatio is the fixed ratio between neighbouring rates of the
	// geometric max-rate sweep, which spans sweepMin to sweepMax ops/s.
	sweepRatio = 1.04
	sweepMin   = 2000.0
	sweepMax   = 160000.0

	// simWarmup is the number of unmeasured steps before the timed
	// simulation steps (Table 1's warm-up); simCheckSteps is the prefix of
	// measured steps whose per-kind message counts must repeat exactly.
	simWarmup     = 5
	simCheckSteps = 20

	// setupRepeats is how many times a run sets the system up; setup_s is
	// the median.
	setupRepeats = 5

	// devSeed is the seed used while the benchmark was written;
	// heldOutSeed was never run during development, so a later claim can be
	// re-checked on a seed its author did not tune against.
	devSeed     = 1
	heldOutSeed = 90210
)

// observedFlags turn on every observability plane of the server.
var observedFlags = []string{"-metrics-addr", "127.0.0.1:0", "-costs", "-stream",
	"-history-bytes", "67108864", "-trace-events", "65536"}

var fleetSpecs = map[string]fleetSpec{
	"fleet-tcp": {name: "fleet-tcp", mix: mixDefault, lo: 14500, hi: 39000},
	"cluster-focal-churn": {name: "cluster-focal-churn", mix: mixFocalHeavy,
		args: []string{"-cluster-nodes", "4"}, lo: 12500, hi: 33000},
	"fleet-tcp-observed": {name: "fleet-tcp-observed", mix: mixDefault, args: observedFlags,
		observed: true, lo: 14500, hi: 39000},
}

// workloadNames lists every workload in the order the benchmark runs them.
var workloadNames = []string{"sim-table1", "fleet-tcp", "cluster-focal-churn", "fleet-tcp-observed"}
