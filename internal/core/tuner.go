package core

import (
	"context"
	"fmt"

	"liquidarch/internal/binlp"
	"liquidarch/internal/config"
	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/phase"
	"liquidarch/internal/platform"
	"liquidarch/internal/power"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// tuner is the measurement machinery behind Session.Tune: one request's
// space, scale, run options and measurement fan-out. A plain run is the
// phase-aware build with a zero interval — the base run then detects no
// phases and every observation resolves to the whole program alone.
type tuner struct {
	space    *config.Space
	scale    workload.Scale
	provider measure.Provider
	workers  int
	// sample truncates every measurement run after that many
	// instructions (0 = run to completion). Because the instruction
	// stream is configuration-independent, equal-length prefixes stay
	// directly comparable.
	sample uint64
	// interval is the phase-profiling interval length (0 for plain
	// runs) and threshold the phase-detection threshold.
	interval  uint64
	threshold float64
}

// observe builds and runs the application once on cfg: the one
// measurement path of model builds and validation alike. The assembled
// program is memoized per (benchmark, scale) by package progs, and the
// simulation goes through the tuner's provider, so identical (program,
// timing-config, run-options) runs are shared across requests.
func (t *tuner) observe(ctx context.Context, b *progs.Benchmark, cfg config.Config) (*platform.RunReport, fpga.Resources, error) {
	prog, err := b.Assemble(t.scale)
	if err != nil {
		return nil, fpga.Resources{}, err
	}
	res, err := fpga.Synthesize(cfg)
	if err != nil {
		return nil, fpga.Resources{}, err
	}
	opts := platform.Options{SampleInstructions: t.sample, IntervalInstructions: t.interval}
	rep, err := t.provider.Measure(ctx, prog, cfg, opts)
	if err != nil {
		return nil, fpga.Resources{}, err
	}
	if !rep.Sampled && rep.ExitCode != 0 {
		return nil, fpga.Resources{}, fmt.Errorf("core: %s exited with code %d", b.Name, rep.ExitCode)
	}
	return rep, res, nil
}

// observation is one configuration's measured cost, resolved per model:
// index 0 is the whole program, index 1+p is phase p.
type observation struct {
	cycles []uint64
	energy []power.Estimate
	res    fpga.Resources
}

// resolveObservation folds one run into per-model costs under trace
// (nil: the whole program only) — the one place the whole-program/
// per-phase index convention and the per-phase energy model live.
func resolveObservation(rep *platform.RunReport, res fpga.Resources, trace *phase.Trace) observation {
	var profiles []phase.Profile
	if trace != nil {
		profiles = trace.Profiles(rep.Intervals)
	}
	o := observation{
		cycles: make([]uint64, 1+len(profiles)),
		energy: make([]power.Estimate, 1+len(profiles)),
		res:    res,
	}
	o.cycles[0] = rep.Cycles()
	o.energy[0] = power.Model(rep.Stats, rep.ICache, rep.DCache, res)
	for _, p := range profiles {
		o.cycles[1+p.Phase] = p.Cycles
		o.energy[1+p.Phase] = power.Model(p.Stats, p.ICache, p.DCache, res)
	}
	return o
}

// companionFor returns, for a replacement-policy variable that is invalid
// stand-alone on the 1-way base cache, the minimal companion change (the
// matching sets=2 variable) it must be paired with for measurement, or
// false for ordinary variables.
func companionFor(v config.Var) (string, bool) {
	switch v.Name {
	case "icachreplace=LRR", "icachreplace=LRU":
		return "icachsets=2", true
	case "dcachreplace=LRR", "dcachreplace=LRU":
		return "dcachsets=2", true
	}
	return "", false
}

// companions maps every variable of space to the index of the companion
// it is measured on top of and attributed against, or -1 for the
// ordinary variables measured against the base, validating that every
// required companion is present.
func companions(space *config.Space) ([]int, error) {
	vars := space.Vars()
	index := make(map[string]int, len(vars))
	for i, v := range vars {
		index[v.Name] = i
	}
	ref := make([]int, len(vars))
	for i, v := range vars {
		ref[i] = -1
		if companion, ok := companionFor(v); ok {
			c, exists := index[companion]
			if !exists {
				return nil, fmt.Errorf("core: variable %s needs companion %s, absent from the space", v.Name, companion)
			}
			ref[i] = c
		}
	}
	return ref, nil
}

// buildSet performs the paper's Section 3 procedure — the measurement
// half of every run. It measures the base (interval-profiled for phase
// runs, whose phases are detected from it), then every single-change
// configuration once, and assembles the whole-program model plus one
// model per detected phase over the shared observations. The result is
// weight-independent, which is what makes it cacheable in the shared
// model layer. Cancelling ctx aborts the build promptly (between
// measurement runs) with the context's error.
func (t *tuner) buildSet(ctx context.Context, b *progs.Benchmark) (*modelSet, error) {
	baseRep, baseRes, err := t.observe(ctx, b, config.Default())
	if err != nil {
		return nil, fmt.Errorf("core: base measurement: %w", err)
	}
	var trace *phase.Trace
	if t.interval > 0 {
		_, detectSpan := obs.Start(ctx, "phase.detect")
		trace = phase.Detect(baseRep.Intervals, t.interval, phase.Options{Threshold: t.threshold})
		if detectSpan != nil {
			detectSpan.Set(
				obs.Int("phases", int64(trace.Phases)),
				obs.Int("segments", int64(len(trace.Segments))))
			detectSpan.End()
		}
	}
	models, err := t.buildModels(ctx, b, trace, resolveObservation(baseRep, baseRes, trace))
	if err != nil {
		return nil, err
	}
	set := &modelSet{models: models, baseRes: baseRes, trace: trace}
	if trace != nil {
		set.baseProfiles = trace.Profiles(baseRep.Intervals)
	}
	return set, nil
}

// buildModels measures every decision variable once — in parallel on
// the shared worker pool, with deterministic results — and assembles
// len(base.cycles) models: models[0] is the whole-program model,
// models[1+p] phase p's. The replacement-policy variables LEON forbids
// on a 1-way cache are measured on top of their companion (sets=2 +
// policy) and attributed against the companion's observation.
func (t *tuner) buildModels(ctx context.Context, b *progs.Benchmark, trace *phase.Trace, base observation) ([]*Model, error) {
	vars := t.space.Vars()
	ref, err := companions(t.space)
	if err != nil {
		return nil, err
	}
	baseCfg := config.Default()
	var ordinary, deferred []int
	for i, c := range ref {
		if c < 0 {
			ordinary = append(ordinary, i)
		} else {
			deferred = append(deferred, i)
		}
	}

	observed := make([]observation, len(vars))
	measureVars := func(indices []int) error {
		return measure.ForEach(ctx, len(indices), t.workers, func(k int) error {
			i := indices[k]
			cfg := baseCfg
			if ref[i] >= 0 {
				cfg = vars[ref[i]].Apply(cfg)
			}
			rep, res, err := t.observe(ctx, b, vars[i].Apply(cfg))
			if err != nil {
				return fmt.Errorf("core: measuring %s: %w", vars[i].Name, err)
			}
			observed[i] = resolveObservation(rep, res, trace)
			return nil
		})
	}
	// Companions are ordinary variables, so they are measured before the
	// deferred variables that are attributed against them.
	if err := measureVars(ordinary); err != nil {
		return nil, err
	}
	if err := measureVars(deferred); err != nil {
		return nil, err
	}

	models := make([]*Model, len(base.cycles))
	for m := range models {
		entries := make([]Entry, len(vars))
		for i, v := range vars {
			o, r := observed[i], base
			if ref[i] >= 0 {
				r = observed[ref[i]]
			}
			entries[i] = Entry{
				Var:       v,
				Cycles:    o.cycles[m],
				Resources: o.res,
				Rho:       100 * (float64(o.cycles[m]) - float64(r.cycles[m])) / float64(r.cycles[m]),
				Lambda:    o.res.LUTPercent() - r.res.LUTPercent(),
				Beta:      o.res.BRAMPercent() - r.res.BRAMPercent(),
				Energy:    o.energy[m],
				Epsilon:   power.DeltaPercent(o.energy[m], r.energy[m]),
			}
		}
		models[m] = &Model{
			App:           b.Name,
			Scale:         t.scale,
			Space:         t.space,
			BaseCycles:    base.cycles[m],
			BaseResources: base.res,
			BaseEnergy:    base.energy[m],
			Entries:       entries,
		}
	}
	return models, nil
}

// Recommendation is the tuner's output for one application and weighting.
type Recommendation struct {
	// App names the application.
	App string
	// Weights are the objective weights used.
	Weights Weights
	// Selection is the solver's assignment, in space order.
	Selection []bool
	// Changes lists the selected parameter changes.
	Changes []string
	// Config is the recommended configuration.
	Config config.Config
	// Predicted is the optimizer's cost approximation.
	Predicted Prediction
	// Objective is the solved objective value.
	Objective float64
	// SolverNodes and Proven report solver effort and optimality proof.
	SolverNodes int
	Proven      bool
}

// recommend solves a built model under the given weights (models are
// reused across weightings, as the paper does) and decodes the solution.
func recommend(m *Model, w Weights, opts binlp.Options) (*Recommendation, error) {
	sol, err := binlp.Solve(m.Formulate(w), opts)
	if err != nil {
		return nil, fmt.Errorf("core: solving: %w", err)
	}
	cfg, err := m.Space.Decode(sol.X)
	if err != nil {
		return nil, fmt.Errorf("core: decoding solution: %w", err)
	}
	var changes []string
	for i, on := range sol.X {
		if on {
			changes = append(changes, m.Space.Vars()[i].Name)
		}
	}
	return &Recommendation{
		App:         m.App,
		Weights:     w,
		Selection:   sol.X,
		Changes:     changes,
		Config:      cfg,
		Predicted:   m.Predict(sol.X),
		Objective:   sol.Objective,
		SolverNodes: sol.Nodes,
		Proven:      sol.Proven,
	}, nil
}

// Validation is the paper's "actual synthesis" row: the recommended
// configuration actually built and run.
type Validation struct {
	Cycles     uint64
	Resources  fpga.Resources
	Energy     power.Estimate
	RuntimePct float64 // delta over base, percent
	EnergyPct  float64 // delta over base, percent
}

// validate builds and runs the recommendation for real.
func (t *tuner) validate(ctx context.Context, b *progs.Benchmark, m *Model, rec *Recommendation) (*Validation, error) {
	rep, res, err := t.observe(ctx, b, rec.Config)
	if err != nil {
		return nil, fmt.Errorf("core: validating: %w", err)
	}
	o := resolveObservation(rep, res, nil)
	return &Validation{
		Cycles:     o.cycles[0],
		Resources:  res,
		Energy:     o.energy[0],
		RuntimePct: 100 * (float64(o.cycles[0]) - float64(m.BaseCycles)) / float64(m.BaseCycles),
		EnergyPct:  power.DeltaPercent(o.energy[0], m.BaseEnergy),
	}, nil
}
