package core_test

import (
	"math"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
)

// TestEnergyDimensionPopulated: every model entry carries an energy
// estimate and a finite epsilon.
func TestEnergyDimensionPopulated(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, config.DcacheGeometrySpace(), "blastn")
	if m.BaseEnergy.TotalJ() <= 0 {
		t.Fatal("base energy missing")
	}
	for _, e := range m.Entries {
		if e.Energy.TotalJ() <= 0 {
			t.Errorf("%s: energy missing", e.Var.Name)
		}
		if math.IsNaN(e.Epsilon) || math.IsInf(e.Epsilon, 0) {
			t.Errorf("%s: epsilon = %f", e.Var.Name, e.Epsilon)
		}
	}
}

// TestEnergyWeightsReduceEnergy: under the energy-dominant weighting, the
// validated recommendation must not consume more energy than the base.
func TestEnergyWeightsReduceEnergy(t *testing.T) {
	t.Parallel()
	rep := tune(t, core.Request{App: "blastn", Weights: core.EnergyWeights()})
	m, val := rep.Artifacts.Model, rep.Artifacts.Validation
	if val.Energy.TotalJ() > m.BaseEnergy.TotalJ() {
		t.Errorf("energy weighting increased energy: %v vs base %v", val.Energy, m.BaseEnergy)
	}
	if val.EnergyPct > 0 {
		t.Errorf("energy delta = %+.2f%%, want <= 0", val.EnergyPct)
	}
}

// TestZeroW3ReproducesPaperObjective: with W3=0 the formulation must be
// identical to the two-dimensional paper objective.
func TestZeroW3ReproducesPaperObjective(t *testing.T) {
	t.Parallel()
	m := tinyModel(t, config.DcacheGeometrySpace(), "arith")
	p2 := m.Formulate(core.Weights{W1: 100, W2: 1})
	p3 := m.Formulate(core.Weights{W1: 100, W2: 1, W3: 0})
	for i := range p2.Cost {
		if p2.Cost[i] != p3.Cost[i] {
			t.Fatalf("cost[%d] differs with W3=0: %f vs %f", i, p2.Cost[i], p3.Cost[i])
		}
	}
}

// TestSampledModelAgreesWithFull: the runtime-sampling extension must pick
// the same configuration as full measurement when the sample covers the
// workload's steady state.
func TestSampledModelAgreesWithFull(t *testing.T) {
	t.Parallel()
	req := core.Request{
		App:            "blastn",
		Space:          config.DcacheGeometrySpace(),
		Weights:        core.RuntimeOnlyWeights(),
		SkipValidation: true,
	}
	full := tune(t, req).Artifacts
	fm, fullRec := full.Model, full.Recommendation

	req.SampleInstructions = 100_000 // roughly half the tiny run
	sampled := tune(t, req).Artifacts
	sm, sampledRec := sampled.Model, sampled.Recommendation

	if sampledRec.Config != fullRec.Config {
		t.Errorf("sampled recommendation %v != full %v",
			sampledRec.Config.DiffBase(), fullRec.Config.DiffBase())
	}
	// Sampled rho estimates should be close to the full-run values.
	for i := range fm.Entries {
		f, s := fm.Entries[i].Rho, sm.Entries[i].Rho
		if math.Abs(f-s) > 3.0 {
			t.Errorf("%s: sampled rho %.2f vs full %.2f", fm.Entries[i].Var.Name, s, f)
		}
	}
}

// TestSamplingIsCheaper: a truncated model build must execute fewer cycles
// in total (observable through lower measured base cycles).
func TestSamplingIsCheaper(t *testing.T) {
	t.Parallel()
	fm := tinyModel(t, config.DcacheGeometrySpace(), "drr")
	sm := tune(t, core.Request{
		App:                "drr",
		Space:              config.DcacheGeometrySpace(),
		SampleInstructions: 20_000,
		SkipValidation:     true,
	}).Artifacts.Model
	if sm.BaseCycles >= fm.BaseCycles {
		t.Errorf("sampled base run (%d cycles) should be shorter than full (%d)",
			sm.BaseCycles, fm.BaseCycles)
	}
}
