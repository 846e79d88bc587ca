package core

import (
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
	"liquidarch/internal/workload"
)

// countingProvider counts Measure calls through to the shared default
// cache stack.
type countingProvider struct {
	inner measure.Provider
	calls atomic.Int64
}

func (c *countingProvider) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	c.calls.Add(1)
	return c.inner.Measure(ctx, prog, cfg, opts)
}

// TestTunePhasesReport checks the internal consistency of a phase-aware
// tuning run: phases tile the run, the per-phase base cycles sum to the
// whole-program base, the schedule covers every segment, and the
// decision arithmetic matches its inputs.
func TestTunePhasesReport(t *testing.T) {
	counter := &countingProvider{inner: measure.NewCache(measure.Simulator{}, 512)}
	opts := PhaseOptions{IntervalInstructions: 20_000, SwitchPenaltyCycles: 10_000}
	rep, err := NewSession(SessionOptions{Provider: counter}).Tune(context.Background(), Request{App: "blastn", Phases: &opts})
	if err != nil {
		t.Fatal(err)
	}

	ph := rep.Phases
	if ph == nil || ph.Trace == nil || ph.Trace.Phases == 0 {
		t.Fatal("no phases detected")
	}
	if len(ph.Recommendations) != ph.Trace.Phases {
		t.Fatalf("%d phase recommendations for %d phases", len(ph.Recommendations), ph.Trace.Phases)
	}
	var phaseBase uint64
	for _, p := range ph.Recommendations {
		phaseBase += p.BaseCycles
		if len(p.Recommendation.Config) == 0 {
			t.Errorf("phase %d has no config rendering", p.Phase)
		}
		if !p.Recommendation.Proven {
			t.Errorf("phase %d solve not proven", p.Phase)
		}
	}
	if phaseBase != rep.Base.Cycles {
		t.Errorf("phase base cycles sum to %d, whole run is %d", phaseBase, rep.Base.Cycles)
	}
	if len(ph.Schedule) != len(ph.Trace.Segments) {
		t.Errorf("schedule has %d entries for %d segments", len(ph.Schedule), len(ph.Trace.Segments))
	}
	switches := 0
	var switchCostSum uint64
	for i, e := range ph.Schedule {
		if e.Switch {
			switches++
			switchCostSum += e.SwitchCostCycles
			if i == 0 {
				t.Error("first segment cannot be a switch")
			}
			if e.ChangedVars <= 0 {
				t.Errorf("switch entry %d changes no parameters", i)
			}
			if want := switchCost(opts.SwitchPenaltyCycles, e.ChangedVars); e.SwitchCostCycles != want {
				t.Errorf("switch entry %d costs %d cycles for %d changed parameters, want %d",
					i, e.SwitchCostCycles, e.ChangedVars, want)
			}
		}
		if i > 0 && (e.Config != ph.Schedule[i-1].Config) != e.Switch {
			t.Errorf("schedule entry %d switch flag inconsistent", i)
		}
	}
	if switches != ph.Switches {
		t.Errorf("schedule says %d switches, report says %d", switches, ph.Switches)
	}
	if switchCostSum != ph.SwitchCostCycles {
		t.Errorf("schedule switch costs sum to %d, report says %d", switchCostSum, ph.SwitchCostCycles)
	}
	var perPhase float64
	for _, p := range ph.Recommendations {
		perPhase += p.Recommendation.Predicted.RuntimeCycles
	}
	perPhase += float64(ph.SwitchCostCycles)
	if perPhase != ph.PerPhaseCycles {
		t.Errorf("per-phase cycles %f, want %f", ph.PerPhaseCycles, perPhase)
	}
	if ph.PerPhaseWins != (ph.PerPhaseCycles < ph.WholeProgramCycles) {
		t.Error("decision flag contradicts the cycle comparison")
	}

	// Measurement economy: one interval-profiled run per configuration —
	// the base plus one per decision variable — feeds the whole-program
	// model and every per-phase model alike.
	want := int64(1 + config.FullSpace().Len())
	if got := counter.calls.Load(); got != want {
		t.Errorf("provider saw %d measurements, want %d", got, want)
	}
}

// TestTunePhasesWholeProgramMatchesPlainTuning: interval profiling must
// not perturb the simulation, so the phase run's whole-program model and
// recommendation equal a plain run's — the one model builder must give
// the same entries whether or not it resolves phases.
func TestTunePhasesWholeProgramMatchesPlainTuning(t *testing.T) {
	for _, app := range []string{"arith", "blastn"} {
		t.Run(app, func(t *testing.T) {
			sess := NewSession(SessionOptions{})
			phased, err := sess.Tune(context.Background(), Request{App: app, Phases: &PhaseOptions{IntervalInstructions: 10_000}})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := sess.Tune(context.Background(), Request{App: app, SkipValidation: true})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(phased.Recommendation)
			want, _ := json.Marshal(plain.Recommendation)
			if string(got) != string(want) {
				t.Errorf("whole-program recommendation diverged:\n%s\nvs plain tuning:\n%s", got, want)
			}

			pm, wm := phased.Artifacts.Model, plain.Artifacts.Model
			if pm.BaseCycles != wm.BaseCycles || pm.BaseResources != wm.BaseResources || pm.BaseEnergy != wm.BaseEnergy {
				t.Errorf("whole-program base diverged: %d cycles, %v, %v vs plain %d cycles, %v, %v",
					pm.BaseCycles, pm.BaseResources, pm.BaseEnergy, wm.BaseCycles, wm.BaseResources, wm.BaseEnergy)
			}
			if !reflect.DeepEqual(comparableEntries(pm.Entries), comparableEntries(wm.Entries)) {
				t.Error("whole-program model entries diverged from plain tuning")
			}
		})
	}
}

// comparableEntries replaces each entry's variable (whose apply func
// defeats reflect.DeepEqual) by its name.
func comparableEntries(entries []Entry) map[string]Entry {
	out := make(map[string]Entry, len(entries))
	for _, e := range entries {
		name := e.Var.Name
		e.Var = config.Var{}
		out[name] = e
	}
	return out
}

// TestTunePhasesDeterministic: the full report — trace, per-phase
// solves, schedule — is byte-reproducible.
func TestTunePhasesDeterministic(t *testing.T) {
	run := func() []byte {
		rep, err := NewSession(SessionOptions{}).Tune(context.Background(), Request{
			App:    "blastn",
			Phases: &PhaseOptions{IntervalInstructions: 20_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, bb := run(), run()
	if string(a) != string(bb) {
		t.Error("phase report not byte-reproducible")
	}
}

// TestMixPerPhaseWins: the phase-structured mix benchmark is the
// workload per-phase tuning exists for — its scan and probe phases want
// opposite dcache line sizes, so the per-phase schedule must beat the
// whole-program recommendation even after paying the switch penalties.
func TestMixPerPhaseWins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := NewSession(SessionOptions{}).Tune(context.Background(), Request{
		App:    "mix",
		Scale:  workload.Small,
		Phases: &PhaseOptions{IntervalInstructions: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := rep.Phases
	if ph.Trace.Phases < 2 {
		t.Fatalf("mix should show multiple phases, detected %d", ph.Trace.Phases)
	}
	if ph.Switches == 0 {
		t.Error("the per-phase schedule should reconfigure at least once")
	}
	if !ph.PerPhaseWins {
		t.Errorf("per-phase schedule (%.0f cycles incl. %d switches) should beat whole-program (%.0f cycles)",
			ph.PerPhaseCycles, ph.Switches, ph.WholeProgramCycles)
	}
}

// TestTunePhasesCancellation: a cancelled context aborts the build with
// the context's error.
func TestTunePhasesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSession(SessionOptions{}).Tune(ctx, Request{App: "blastn", Phases: &PhaseOptions{}}); err == nil {
		t.Fatal("cancelled phase tune should fail")
	}
}
