package core

import (
	"encoding/json"

	"liquidarch/internal/fpga"
	"liquidarch/internal/phase"
)

// Report is the one serialization of a complete tuning run, shared by
// every surface — the autoarch CLI (-json), the autoarchd daemon's job
// results, the experiment harnesses and the examples — so scripts
// consume the same document no matter which surface ran the tuning.
//
// The document has one shape: identity (app, scale, space, weights),
// the base configuration's measured cost, the solver's recommendation,
// and the optional validation and model blocks. A phase-aware run adds
// the "phases" block — trace, per-phase recommendations and the
// reconfiguration-schedule decision — and omits validation (phase runs
// compare modeled schedules, they do not re-validate).
type Report struct {
	// App and Scale identify the workload.
	App   string `json:"app"`
	Scale string `json:"scale"`
	// SpaceVars is the decision-space size (52 for the full paper space).
	SpaceVars int `json:"space_vars"`
	// Weights are the objective weights the solver ran under.
	Weights Weights `json:"weights"`

	// Base is the unmodified LEON2 configuration's measured cost.
	Base CostPoint `json:"base"`

	// Recommendation is the solver's output — for phase-aware runs, the
	// whole-program recommendation the schedule is weighed against.
	Recommendation RecommendationReport `json:"recommendation"`

	// Validation is the recommended configuration actually built and run
	// (the paper's "actual synthesis" row); nil when skipped and for
	// phase-aware runs.
	Validation *CostPoint `json:"validation,omitempty"`

	// Model, when requested, lists every measured perturbation.
	Model *Model `json:"model,omitempty"`

	// Phases is present iff phase-aware tuning was requested.
	Phases *PhaseBlock `json:"phases,omitempty"`

	// Replay is present iff schedule replay was requested
	// (Request.Replay): the per-phase schedule executed for real, with
	// the modeled-vs-replayed conformance error.
	Replay *ReplayBlock `json:"replay,omitempty"`

	// Online is present iff closed-loop adaptation was requested
	// (Request.Online): a replay driven by live signature
	// classification instead of the precomputed schedule.
	Online *OnlineBlock `json:"online,omitempty"`

	// Artifacts carries the in-memory objects behind the document —
	// typed configurations, the full model, the raw solver outcomes —
	// for library consumers; it never serializes.
	Artifacts *Artifacts `json:"-"`
}

// Artifacts are the in-memory products of a tuning run, attached to the
// Report for programmatic consumers (the experiment harnesses, the
// examples) that need more than the wire document: decoded
// configurations, resource structs, the model even when it is not
// embedded in the JSON.
type Artifacts struct {
	// Model is the whole-program perturbation model (always populated,
	// unlike Report.Model which is opt-in for the wire).
	Model *Model
	// Recommendation and Validation are the raw solver outcome and
	// validation measurement (Validation nil when skipped).
	Recommendation *Recommendation
	Validation     *Validation
	// PhaseModels and PhaseRecommendations hold, for phase-aware runs,
	// one model and one solved outcome per detected phase.
	PhaseModels          []*Model
	PhaseRecommendations []*Recommendation
}

// PhaseBlock is the phase-aware portion of a Report: the detected
// structure, one recommendation per phase, and the schedule decision
// against the whole-program recommendation.
type PhaseBlock struct {
	// IntervalInstructions is the profiling interval length;
	// SwitchPenaltyCycles the cycle cost of a full reconfiguration, of
	// which each transition is charged its proportional share.
	IntervalInstructions uint64 `json:"interval_instructions"`
	SwitchPenaltyCycles  uint64 `json:"switch_penalty_cycles"`

	// Trace is the detected phase structure.
	Trace *phase.Trace `json:"trace"`
	// Recommendations holds one solved model per detected phase.
	Recommendations []PhaseRecommendation `json:"recommendations"`

	// Schedule is the per-phase plan over the trace's segments.
	// Switches counts its mid-run reconfigurations (entries whose config
	// differs from their predecessor's); SwitchCostCycles is their total
	// modeled cost — each transition charged SwitchPenaltyCycles per
	// configuration parameter it actually changes.
	Schedule         []ScheduleEntry `json:"schedule"`
	Switches         int             `json:"switches"`
	SwitchCostCycles uint64          `json:"switch_cost_cycles"`

	// PerPhaseCycles is the schedule's modeled whole-run cost: each
	// phase under its own configuration plus SwitchCostCycles.
	// WholeProgramCycles is the single recommendation's modeled cost.
	// PerPhaseWins reports the decision; SavingsPct the margin (negative
	// when the whole-program configuration wins).
	PerPhaseCycles     float64 `json:"per_phase_predicted_cycles"`
	WholeProgramCycles float64 `json:"whole_program_predicted_cycles"`
	PerPhaseWins       bool    `json:"per_phase_wins"`
	SavingsPct         float64 `json:"savings_pct"`
}

// CostPoint is one configuration's measured cost in the report.
type CostPoint struct {
	Cycles  uint64  `json:"cycles"`
	Seconds float64 `json:"seconds"`
	LUTPct  int     `json:"lut_pct"`
	BRAMPct int     `json:"bram_pct"`
	// RuntimePct and EnergyPct are deltas over the base (zero for the
	// base itself).
	RuntimePct float64 `json:"runtime_pct,omitempty"`
	EnergyPct  float64 `json:"energy_pct,omitempty"`
}

// RecommendationReport is the serialized solver outcome.
type RecommendationReport struct {
	// Changes lists the selected parameter changes in space order; empty
	// means "keep the base configuration".
	Changes []string `json:"changes"`
	// Config is the canonical rendering of the recommended configuration.
	Config string `json:"config"`
	// Predicted is the optimizer's cost approximation.
	Predicted Prediction `json:"predicted"`
	// Objective, SolverNodes and Proven report the solve itself.
	Objective   float64 `json:"objective"`
	SolverNodes int     `json:"solver_nodes"`
	Proven      bool    `json:"proven"`
}

// PhaseRecommendation is one phase's solved model.
type PhaseRecommendation struct {
	// Phase is the phase ID of the trace.
	Phase int `json:"phase"`
	// Intervals and Instructions describe the phase's share of the run.
	Intervals    int    `json:"intervals"`
	Instructions uint64 `json:"instructions"`
	// BaseCycles is the phase's cost on the base configuration.
	BaseCycles uint64 `json:"base_cycles"`
	// Recommendation is the phase's solved BINLP outcome; its Predicted
	// runtime is the phase's modeled cost under its own configuration.
	Recommendation RecommendationReport `json:"recommendation"`
}

// ScheduleEntry is one segment of the per-phase reconfiguration
// schedule.
type ScheduleEntry struct {
	// Phase, Start and End mirror the trace segment.
	Phase int `json:"phase"`
	Start int `json:"start"`
	End   int `json:"end"`
	// Config is the configuration the segment runs under.
	Config string `json:"config"`
	// Switch is true when entering this segment requires a
	// reconfiguration (its config differs from the previous segment's).
	// ChangedVars counts the configuration parameters that actually
	// change at the boundary, and SwitchCostCycles the transition's
	// modeled cost: the run's SwitchPenaltyCycles (a full reshape)
	// scaled by ChangedVars over the configuration's parameter-group
	// count — a partial reconfiguration rewriting less fabric costs
	// proportionally less.
	Switch           bool   `json:"switch,omitempty"`
	ChangedVars      int    `json:"changed_vars,omitempty"`
	SwitchCostCycles uint64 `json:"switch_cost_cycles,omitempty"`
}

// ReplayBlock is the schedule-replay portion of a Report: the
// per-phase schedule executed as one real simulation that reshapes the
// configuration at each boundary, and the conformance figure comparing
// that actual cost against the model's prediction.
type ReplayBlock struct {
	// IntervalInstructions is the boundary grid the replay ran at (the
	// trace's profiling interval length).
	IntervalInstructions uint64 `json:"interval_instructions"`
	// Segments are the executed stretches in order, each with its actual
	// simulated cost and the switch accounting at its entry boundary.
	Segments []ReplaySegmentReport `json:"segments"`
	// Switches counts the mid-run reconfigurations performed;
	// SwitchCostCycles their total modeled cost under the same
	// partial-reconfiguration pricing the schedule uses.
	Switches         int    `json:"switches"`
	SwitchCostCycles uint64 `json:"switch_cost_cycles"`
	// SimulatedCycles is the replay's raw simulated cost; ActualCycles
	// adds the modeled switch cost — the number the prediction is
	// judged against.
	SimulatedCycles uint64 `json:"simulated_cycles"`
	ActualCycles    uint64 `json:"actual_cycles"`
	// ModeledCycles is the phase block's predicted schedule cost
	// (per-phase predictions plus switch cost); ErrorPct the
	// modeled-vs-replayed conformance error, signed:
	// 100*(modeled-actual)/actual.
	ModeledCycles float64 `json:"modeled_cycles"`
	ErrorPct      float64 `json:"error_pct"`
	// ExitCode and Checksum are the replayed program's architectural
	// results — identical to any single-configuration run's, which the
	// replay verifies by construction. Sampled records a truncated run.
	ExitCode uint32 `json:"exit_code"`
	Checksum uint32 `json:"checksum"`
	Sampled  bool   `json:"sampled,omitempty"`
}

// ReplaySegmentReport is one executed stretch of a replay.
type ReplaySegmentReport struct {
	// Segment indexes the stretch; Phase is the phase whose
	// configuration it ran under (the classifier's pick, for online
	// runs); Start and End its interval span, inclusive.
	Segment int `json:"segment"`
	Phase   int `json:"phase"`
	Start   int `json:"start"`
	End     int `json:"end"`
	// Config is the configuration the stretch ran under.
	Config string `json:"config"`
	// Instructions and Cycles are the stretch's actual simulated cost.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// Switch marks a reconfiguration at the stretch's entry;
	// ChangedVars and SwitchCostCycles mirror ScheduleEntry's
	// accounting.
	Switch           bool   `json:"switch,omitempty"`
	ChangedVars      int    `json:"changed_vars,omitempty"`
	SwitchCostCycles uint64 `json:"switch_cost_cycles,omitempty"`
}

// OnlineBlock is the closed-loop portion of a Report: a replay whose
// configuration choices came from live signature classification
// instead of the precomputed schedule.
type OnlineBlock struct {
	ReplayBlock
	// Divergences counts the intervals the online run executed under a
	// configuration differing from the precomputed schedule's choice
	// for that interval — zero when every phase is stable enough to
	// classify back to itself. Unclassified counts the boundary
	// decisions where no representative lay within the acceptance
	// bound (the run then keeps its current configuration).
	Divergences  int `json:"divergences"`
	Unclassified int `json:"unclassified"`
}

// baseCostPoint renders a base measurement as a report cost point.
func baseCostPoint(cycles uint64, res fpga.Resources) CostPoint {
	return CostPoint{
		Cycles:  cycles,
		Seconds: float64(cycles) / 25e6,
		LUTPct:  res.LUTPercent(),
		BRAMPct: res.BRAMPercent(),
	}
}

// MarshalIndent renders the report as indented JSON with a trailing
// newline, the exact byte stream both the CLI and the daemon emit.
func (r *Report) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
