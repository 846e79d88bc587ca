package core_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
	"liquidarch/internal/workload"
)

// countedSimulator counts the simulations that actually execute (below
// every cache layer).
type countedSimulator struct {
	calls atomic.Int64
}

func (c *countedSimulator) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	c.calls.Add(1)
	return measure.Simulator{}.Measure(ctx, prog, cfg, opts)
}

func newCountedSession(t *testing.T) (*core.Session, *countedSimulator) {
	t.Helper()
	sim := &countedSimulator{}
	sess := core.NewSession(core.SessionOptions{Provider: measure.NewCache(sim, 512)})
	return sess, sim
}

// TestSessionSharesModelAcrossWeights is the shared-model-layer
// acceptance test: a second request for the same app and space under
// different weights must perform zero new simulations and zero model
// builds — one build, N solves.
func TestSessionSharesModelAcrossWeights(t *testing.T) {
	sess, sim := newCountedSession(t)
	req := core.Request{App: "arith", Scale: workload.Tiny, Space: config.DcacheGeometrySpace()}

	req.Weights = core.RuntimeWeights()
	first, err := sess.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	simsAfterFirst := sim.calls.Load()
	if st := sess.ModelStats(); st.Builds != 1 || st.Misses != 1 {
		t.Fatalf("after first tune: %+v, want 1 build / 1 miss", st)
	}

	req.Weights = core.ResourceWeights()
	second, err := sess.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d := sim.calls.Load() - simsAfterFirst; d != 0 {
		t.Errorf("second weighting ran %d new simulations, want 0", d)
	}
	st := sess.ModelStats()
	if st.Builds != 1 {
		t.Errorf("second weighting rebuilt the model: %d builds", st.Builds)
	}
	if st.Hits != 1 {
		t.Errorf("model layer hits = %d, want 1", st.Hits)
	}
	if first.Weights == second.Weights {
		t.Error("reports should carry their own weights")
	}
	if first.Base != second.Base {
		t.Error("same model must yield the same base cost point")
	}
}

// TestSessionSingleflightsConcurrentBuilds: concurrent Tune calls with
// the same model identity must coalesce onto one build.
func TestSessionSingleflightsConcurrentBuilds(t *testing.T) {
	sess, _ := newCountedSession(t)
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sess.Tune(context.Background(), core.Request{
				App:   "arith",
				Scale: workload.Tiny,
				Space: config.DcacheGeometrySpace(),
				// Different weights per caller: same model key, distinct
				// solves.
				Weights: core.Weights{W1: 100, W2: float64(i)},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tune %d: %v", i, err)
		}
	}
	st := sess.ModelStats()
	if st.Builds != 1 {
		t.Errorf("concurrent tunes performed %d builds, want 1 (stats %+v)", st.Builds, st)
	}
	if st.Hits+st.Misses != n {
		t.Errorf("model layer saw %d lookups, want %d", st.Hits+st.Misses, n)
	}
}

// TestSessionPhaseRunsShareModels: phase runs of one app share the
// phase model set across weightings too.
func TestSessionPhaseRunsShareModels(t *testing.T) {
	sess, sim := newCountedSession(t)
	req := core.Request{
		App:    "arith",
		Scale:  workload.Tiny,
		Space:  config.DcacheGeometrySpace(),
		Phases: &core.PhaseOptions{IntervalInstructions: 10_000},
	}
	if _, err := sess.Tune(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	sims := sim.calls.Load()
	req.Weights = core.ResourceWeights()
	rep, err := sess.Tune(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d := sim.calls.Load() - sims; d != 0 {
		t.Errorf("second phase weighting ran %d new simulations, want 0", d)
	}
	if st := sess.ModelStats(); st.Builds != 1 || st.Hits != 1 {
		t.Errorf("phase model set not shared: %+v", st)
	}
	if rep.Phases == nil || rep.Validation != nil {
		t.Error("phase report shape wrong")
	}
}

// TestSessionObserverProgress: the observer sees monotonic progress
// ending at total, and a model-layer hit accounts the whole build's
// measurements at once.
func TestSessionObserverProgress(t *testing.T) {
	sess, _ := newCountedSession(t)
	space := config.DcacheGeometrySpace()
	wantTotal := 1 + space.Len() + 1

	var mu sync.Mutex
	var dones []int
	var totals []int
	obs := core.ObserverFunc(func(done, total int) {
		mu.Lock()
		dones = append(dones, done)
		totals = append(totals, total)
		mu.Unlock()
	})
	req := core.Request{App: "arith", Scale: workload.Tiny, Space: space, Observer: obs}
	if _, err := sess.Tune(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	max := 0
	for _, d := range dones {
		if d > max {
			max = d
		}
	}
	for _, tot := range totals {
		if tot != wantTotal {
			t.Fatalf("observer total %d, want %d", tot, wantTotal)
		}
	}
	mu.Unlock()
	if max != wantTotal {
		t.Errorf("final progress %d of %d", max, wantTotal)
	}

	// Warm run: the model comes from the layer; progress must still
	// reach total (build jump + validation).
	mu.Lock()
	dones = dones[:0]
	mu.Unlock()
	if _, err := sess.Tune(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	max = 0
	for _, d := range dones {
		if d > max {
			max = d
		}
	}
	mu.Unlock()
	if max != wantTotal {
		t.Errorf("warm-run progress %d of %d", max, wantTotal)
	}
}

// TestSessionRequestValidation covers the request-resolution errors and
// defaults.
func TestSessionRequestValidation(t *testing.T) {
	sess := core.NewSession(core.SessionOptions{})
	if _, err := sess.Tune(context.Background(), core.Request{App: "nope"}); err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Errorf("unknown app error = %v", err)
	}
	if _, err := sess.Tune(context.Background(), core.Request{
		App:    "arith",
		Model:  &core.Model{},
		Phases: &core.PhaseOptions{},
	}); err == nil || !strings.Contains(err.Error(), "phase") {
		t.Errorf("model+phases error = %v", err)
	}
	if _, err := sess.Tune(context.Background(), core.Request{
		App:          "arith",
		IncludeModel: true,
		Phases:       &core.PhaseOptions{},
	}); err == nil || !strings.Contains(err.Error(), "cannot embed the model") {
		t.Errorf("include-model+phases error = %v", err)
	}
}

// TestSessionPrebuiltModel: a request carrying a loaded model skips
// measuring and solves it directly (the CLI's -load-model path).
func TestSessionPrebuiltModel(t *testing.T) {
	sess, sim := newCountedSession(t)
	// Build the model in a sibling session over the same provider, so
	// this session's model layer stays untouched.
	built, err := core.NewSession(core.SessionOptions{Provider: sess.Provider()}).Tune(context.Background(), core.Request{
		App:            "arith",
		Scale:          workload.Tiny,
		Space:          config.DcacheGeometrySpace(),
		SkipValidation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := built.Artifacts.Model
	sims := sim.calls.Load()

	rep, err := sess.Tune(context.Background(), core.Request{
		App:   "arith",
		Scale: workload.Tiny,
		Model: model,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.ModelStats(); st.Builds != 0 || st.Misses != 0 {
		t.Errorf("pre-built model touched the model layer: %+v", st)
	}
	if d := sim.calls.Load() - sims; d != 0 {
		t.Errorf("pre-built model ran %d new simulations (validation should replay the cache)", d)
	}
	if rep.Validation == nil || rep.Artifacts.Model != model {
		t.Error("report not assembled from the pre-built model")
	}
}
