package main

import (
	"testing"
	"time"
)

// TestRefKernelDeterministic checks that the reference kernel returns
// the same nonzero value on every call.
func TestRefKernelDeterministic(t *testing.T) {
	first := refKernel()
	if first == 0 {
		t.Fatal("kernel returned 0, the value of a failed step")
	}
	for i := 0; i < 3; i++ {
		if got := refKernel(); got != first {
			t.Fatalf("call %d returned %#x, first %#x", i+2, got, first)
		}
	}
}

func TestRefTimer(t *testing.T) {
	rec := &recorder{}
	rt := newRefTimer(rec)
	before := rt.totals()
	var sum time.Duration
	for i := 0; i < 3; i++ {
		sum += rt.sample()
	}
	got := rt.totals().since(before)
	if got.n != 3 || got.cpu != sum || got.mean() != sum/3 {
		t.Fatalf("totals %+v, want 3 samples of %v in all", got, sum)
	}
	if len(rec.violations) != 0 {
		t.Fatalf("violations: %v", rec.violations)
	}
	if (refTotals{}).mean() != 0 {
		t.Fatal("mean of no samples is not 0")
	}
}
