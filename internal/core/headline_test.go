package core_test

import (
	"context"
	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/workload"
)

// TestPaperHeadlineResults is the end-to-end regression net for the whole
// reproduction at the default experiment scale: it asserts the qualitative
// claims of the paper's Section 6.1 that EXPERIMENTS.md reports, so any
// substrate change that breaks the shape of Figure 5 fails here.
func TestPaperHeadlineResults(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()

	type outcome struct {
		rec *core.Recommendation
		m   *core.Model
		val *core.Validation
	}
	results := map[string]outcome{}
	sess := core.NewSession(core.SessionOptions{})
	for _, app := range []string{"blastn", "drr", "frag", "arith"} {
		rep, err := sess.Tune(context.Background(), core.Request{App: app, Scale: workload.Small})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		a := rep.Artifacts
		results[app] = outcome{rec: a.Recommendation, m: a.Model, val: a.Validation}
	}

	gains := map[string]float64{}
	for app, o := range results {
		gains[app] = -o.val.RuntimePct
	}

	// Section 6.1: all four applications gain; the paper's band is
	// 6.15-19.39%, ours must stay in single-to-low-double digits.
	for app, g := range gains {
		if g < 3 || g > 35 {
			t.Errorf("%s gain %.2f%% outside the plausible band [3,35]", app, g)
		}
	}
	// DRR is the biggest winner; Arith the smallest (paper ordering).
	if gains["drr"] <= gains["blastn"] || gains["drr"] <= gains["arith"] {
		t.Errorf("DRR should win: %v", gains)
	}
	if gains["arith"] >= gains["blastn"] {
		t.Errorf("Arith should gain least among compute+memory apps: %v", gains)
	}

	// Figure 5 selections: m32x32 everywhere; ICC hold and fast jump off
	// everywhere; only Arith keeps the divider; memory apps grow the
	// dcache while Arith shrinks it.
	for app, o := range results {
		cfg := o.rec.Config
		if cfg.IU.Multiplier != config.Mul32x32 {
			t.Errorf("%s: multiplier %v, paper selects m32x32", app, cfg.IU.Multiplier)
		}
		if cfg.IU.ICCHold || cfg.IU.FastJump {
			t.Errorf("%s: icchold=%t fastjump=%t, paper disables both", app, cfg.IU.ICCHold, cfg.IU.FastJump)
		}
		wantDivider := config.DivNone
		if app == "arith" {
			wantDivider = config.DivRadix2
		}
		if cfg.IU.Divider != wantDivider {
			t.Errorf("%s: divider %v, want %v", app, cfg.IU.Divider, wantDivider)
		}
	}
	for _, app := range []string{"blastn", "drr", "frag"} {
		if total := results[app].rec.Config.DCache.TotalKB(); total < 16 {
			t.Errorf("%s: dcache %d KB, memory-bound apps should grow it", app, total)
		}
	}
	if total := results["arith"].rec.Config.DCache.TotalKB(); total > 4 {
		t.Errorf("arith: dcache %d KB, should shrink to save BRAM", total)
	}

	// Every recommendation fits the device and the optimizer's runtime
	// estimate is optimistic-or-exact (the paper's overestimation
	// direction).
	for app, o := range results {
		if !o.val.Resources.FitsDevice() {
			t.Errorf("%s: recommendation does not fit: %v", app, o.val.Resources)
		}
		predictedGain := -o.rec.Predicted.RuntimePct
		if predictedGain+0.01 < gains[app] {
			t.Errorf("%s: predicted gain %.2f%% below actual %.2f%% (paper never underestimates)",
				app, predictedGain, gains[app])
		}
	}
}
