package core

import (
	"fmt"

	"liquidarch/internal/config"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// Request is the one description of a tuning run, shared by every
// surface: the autoarch CLI's flags, the autoarchd daemon's JobRequest,
// the experiment harnesses and the examples all map onto it and hand it
// to Session.Tune. The zero value of every optional field selects the
// documented default, so a Request can be built field-by-field from any
// wire format without translation tables.
type Request struct {
	// App names the benchmark to tune (progs registry: blastn, drr,
	// frag, arith, mix).
	App string
	// Scale selects the workload size (default Tiny — the zero value).
	Scale workload.Scale
	// Space is the decision-variable space; nil means the full
	// 52-variable paper space.
	Space *config.Space
	// Weights are the objective weights; the zero value — including an
	// explicitly all-zero weighting, whose objective would score every
	// configuration 0 — selects the paper's runtime weighting
	// (w1=100, w2=1).
	Weights Weights
	// SampleInstructions, when nonzero, truncates every measurement run
	// after that many instructions.
	SampleInstructions uint64
	// Workers bounds this request's parallel measurement runs; 0 uses
	// the session's default.
	Workers int

	// IncludeModel embeds the full perturbation model in the report's
	// wire document (the in-memory model is always available through
	// Report.Artifacts). Incompatible with Phases.
	IncludeModel bool
	// SkipValidation skips the "actual synthesis" run of the
	// recommendation; Report.Validation is then nil. Phase-aware runs
	// never validate.
	SkipValidation bool

	// Model, when set, is a pre-built perturbation model (core.LoadModel)
	// to solve instead of measuring; the model's own space overrides
	// Space. Incompatible with Phases.
	Model *Model

	// Phases switches the run to phase-aware tuning: the report gains
	// the Phases block — one recommendation per detected execution phase
	// plus the reconfiguration-schedule decision. The pointee's zero
	// values select the phase defaults.
	Phases *PhaseOptions

	// Replay, valid only with Phases, replays the per-phase schedule for
	// real: one extra simulation reshapes the platform configuration at
	// every schedule boundary, and the report gains the Replay block
	// with the actual per-segment cycles and the modeled-vs-replayed
	// conformance error. Like the execution-tuning knobs, Replay is a
	// decision-half flag: it never touches the measurement provider, so
	// cached measurements and the shared model layer are byte-identical
	// with or without it.
	Replay bool
	// Online, valid only with Phases, additionally runs the closed-loop
	// mode: the platform classifies each live interval's block-signature
	// vector against the trace's phase representatives and switches
	// configuration without the precomputed schedule. The report gains
	// the Online block, including how often the adaptive run diverged
	// from the schedule. Decision-half only, like Replay.
	Online bool

	// Observer, when set, receives per-measurement progress.
	Observer Observer
}

// Observer receives tuning progress: done of total expected
// measurements have completed — cache and store hits included, which is
// why a warm session's progress jumps straight to total. Callbacks may
// arrive concurrently from the measuring goroutines.
type Observer interface {
	TuneProgress(done, total int)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(done, total int)

// TuneProgress implements Observer.
func (f ObserverFunc) TuneProgress(done, total int) { f(done, total) }

// resolve validates the request into its tuning inputs, applying the
// documented defaults.
func (r Request) resolve() (*progs.Benchmark, *config.Space, Weights, error) {
	b, ok := progs.ByName(r.App)
	if !ok {
		return nil, nil, Weights{}, fmt.Errorf("core: unknown app %q", r.App)
	}
	space := r.Space
	if r.Model != nil {
		if r.Phases != nil {
			return nil, nil, Weights{}, fmt.Errorf("core: a pre-built model cannot drive phase-aware tuning (phase runs build one model per phase)")
		}
		space = r.Model.Space
	}
	if space == nil {
		space = config.FullSpace()
	}
	if r.IncludeModel && r.Phases != nil {
		return nil, nil, Weights{}, fmt.Errorf("core: a phase-aware report cannot embed the model (phase runs build one model per phase)")
	}
	if (r.Replay || r.Online) && r.Phases == nil {
		return nil, nil, Weights{}, fmt.Errorf("core: replay and online modes require phase-aware tuning (set Phases)")
	}
	w := r.Weights
	if w == (Weights{}) {
		w = RuntimeWeights()
	}
	return b, space, w, nil
}
