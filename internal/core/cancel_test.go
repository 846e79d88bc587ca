package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/platform"
)

// cancellingProvider cancels the run's context after a fixed number of
// measurements, simulating a caller pulling the plug mid-build.
type cancellingProvider struct {
	inner  measure.Provider
	cancel context.CancelFunc
	after  int64
	seen   atomic.Int64
}

func (p *cancellingProvider) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	if p.seen.Add(1) > p.after {
		p.cancel()
	}
	return p.inner.Measure(ctx, prog, cfg, opts)
}

func TestBuildModelAbortsOnCancelledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A fresh (uncached) provider ensures the cancelled context is what
	// the measurement path observes, not a cache hit.
	sess := core.NewSession(core.SessionOptions{Provider: measure.NewCache(measure.Simulator{}, 8)})
	_, err := sess.Tune(ctx, core.Request{App: "blastn", SkipValidation: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("model build with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestBuildModelAbortsPromptlyMidBuild(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := core.NewSession(core.SessionOptions{
		Provider: &cancellingProvider{
			inner:  measure.NewCache(measure.Simulator{}, 64),
			cancel: cancel,
			after:  3,
		},
		Workers: 2,
	})
	start := time.Now()
	_, err := sess.Tune(ctx, core.Request{App: "arith", SkipValidation: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("model build cancelled mid-build: err = %v, want context.Canceled", err)
	}
	// "Promptly" = a handful of in-flight tiny runs at most, not the
	// remaining ~49 of the 52-variable space.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled model build took %v", elapsed)
	}
}
