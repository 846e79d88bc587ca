package core

import "liquidarch/internal/phase"

// Phase-aware tuning: the paper tunes one configuration per application;
// this mode tunes one per detected execution phase and decides — under
// an explicit reconfiguration-cost model — whether switching
// configurations at phase boundaries beats the single whole-program
// recommendation.
//
// The measurement cost is the same as a whole-program model build: every
// single-change configuration is simulated once with interval profiling
// on, and each run's per-interval deltas are summed per phase (the
// partition aligns across configurations because interval boundaries are
// instruction counts). One set of runs therefore feeds the whole-program
// model and every per-phase model, and the runs share the measurement
// provider's cache/store keyed by (program, timing config, interval).
// The built models are weight-independent and live in the session's
// shared model layer (session.go); the decision half — per-phase solves,
// the schedule and its per-transition switch costs — runs per request.

// DefaultIntervalInstructions is the profiling interval length used when
// a caller does not choose one: fine enough to split the benchmark
// kernels' phases at every workload scale, coarse enough that the
// per-interval snapshots stay negligible next to the simulation.
const DefaultIntervalInstructions = 50_000

// DefaultSwitchPenaltyCycles prices a full runtime reconfiguration —
// every parameter group of the configuration rewritten. 25 000 cycles
// is 1 ms at the platform's 25 MHz clock, the order of a full FPGA
// partial-reconfiguration pass. A schedule transition rewriting only k
// of the configuration's config.ParameterGroups() groups is charged the
// proportional share k/G of this penalty, so small reshapes (a lone
// dcache line-size flip) are priced well under the full millisecond.
const DefaultSwitchPenaltyCycles = 25_000

// PhaseOptions configures phase-aware tuning. Zero values select the
// defaults.
type PhaseOptions struct {
	// IntervalInstructions is the profiling interval length.
	IntervalInstructions uint64 `json:"interval_instructions,omitempty"`
	// SwitchPenaltyCycles is the cycle cost of a full reconfiguration;
	// each schedule transition is charged the share of it proportional
	// to how many configuration parameters it actually changes.
	SwitchPenaltyCycles uint64 `json:"switch_penalty_cycles,omitempty"`
	// Threshold overrides the phase-detection clustering threshold
	// (phase.DefaultThreshold) when > 0.
	Threshold float64 `json:"threshold,omitempty"`
}

// normalized fills in the option defaults.
func (o PhaseOptions) normalized() PhaseOptions {
	if o.IntervalInstructions == 0 {
		o.IntervalInstructions = DefaultIntervalInstructions
	}
	if o.SwitchPenaltyCycles == 0 {
		o.SwitchPenaltyCycles = DefaultSwitchPenaltyCycles
	}
	return o
}

// threshold resolves the effective detection threshold (phase.Detect
// applies the same default), so the model-cache key names it.
func (o PhaseOptions) threshold() float64 {
	if o.Threshold > 0 {
		return o.Threshold
	}
	return phase.DefaultThreshold
}
