package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"liquidarch/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestJSONGolden locks the -json document byte-for-byte: it is the shared
// serialization the autoarchd daemon also emits, so accidental drift here
// is an API break, not a cosmetic change. The workload and simulator are
// deterministic, which is what makes a byte-exact golden possible.
func TestJSONGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-app", "arith", "-scale", "tiny", "-space", "dcache", "-json"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
	}

	golden := filepath.Join("testdata", "arith_tiny_dcache.json.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	// Byte-exact, solver_nodes included: the BINLP solver iterates its
	// coefficients in sorted order, so the node count is reproducible.
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-json output differs from golden file %s\ngot:\n%s\nwant:\n%s",
			golden, stdout.Bytes(), want)
	}

	// The document must round-trip as a core.Report — the contract
	// the daemon's clients rely on.
	var report core.Report
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("output is not a Report: %v", err)
	}
	if report.App != "arith" || report.Scale != "tiny" {
		t.Errorf("report identifies %s/%s, want arith/tiny", report.App, report.Scale)
	}
	if report.Base.Cycles == 0 || report.Validation.Cycles == 0 {
		t.Errorf("report missing measurements: base %d, validation %d cycles",
			report.Base.Cycles, report.Validation.Cycles)
	}
}

// TestPhasesJSONGolden locks the -phases -json document byte-for-byte —
// the serialization autoarchd's phase jobs share. It doubles as the
// phase-determinism gate for the full CLI path: interval profiling,
// detection, per-phase solves and the schedule decision must all be
// byte-reproducible for the golden to hold.
func TestPhasesJSONGolden(t *testing.T) {
	args := []string{"-app", "mix", "-scale", "tiny", "-space", "dcache",
		"-phases", "-interval", "20000", "-json"}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
	}

	golden := filepath.Join("testdata", "mix_tiny_dcache_phases.json.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-phases -json output differs from golden file %s\ngot:\n%s\nwant:\n%s",
			golden, stdout.Bytes(), want)
	}

	// Re-run: same bytes within one process too (shared caches included).
	var again bytes.Buffer
	if code := run(context.Background(), args, &again, &stderr); code != 0 {
		t.Fatalf("second run exited %d", code)
	}
	if !bytes.Equal(stdout.Bytes(), again.Bytes()) {
		t.Error("-phases -json output not reproducible within one process")
	}

	var report core.Report
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("output is not a core.Report: %v", err)
	}
	ph := report.Phases
	if report.App != "mix" || ph == nil || ph.Trace == nil || ph.Trace.Phases == 0 {
		t.Errorf("report incomplete: app %s, phases %+v", report.App, ph)
	}
	if ph != nil && (len(ph.Recommendations) != ph.Trace.Phases || len(ph.Schedule) == 0) {
		t.Errorf("report missing phase recommendations or schedule")
	}
}

// TestJSONStdoutClean ensures -json keeps stdout pure JSON (progress goes
// to stderr).
func TestJSONStdoutClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-app", "arith", "-scale", "tiny", "-space", "dcache", "-json"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	var v any
	if err := json.Unmarshal(stdout.Bytes(), &v); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\n%s", err, stdout.String())
	}
	if stderr.Len() == 0 {
		t.Error("expected progress lines on stderr in -json mode")
	}
}

// TestReplayFlag: `autoarch -replay -online` (each implying -phases)
// must surface the modeled-vs-replayed error figure and the online
// divergence count in both output modes — the CLI half of the
// conformance loop.
func TestReplayFlag(t *testing.T) {
	args := []string{"-app", "mix", "-scale", "tiny", "-space", "dcache",
		"-interval", "20000", "-replay", "-online"}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"replay:", "online:", "error ", "divergences from schedule:"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}

	var jsonOut bytes.Buffer
	code = run(context.Background(), append(args, "-json"), &jsonOut, &stderr)
	if code != 0 {
		t.Fatalf("-json run exited %d, stderr:\n%s", code, stderr.String())
	}
	var report core.Report
	if err := json.Unmarshal(jsonOut.Bytes(), &report); err != nil {
		t.Fatalf("output is not a core.Report: %v", err)
	}
	if report.Replay == nil || report.Online == nil {
		t.Fatal("report missing replay/online blocks")
	}
	if report.Replay.ActualCycles == 0 || report.Replay.ModeledCycles == 0 {
		t.Error("replay block missing the modeled-vs-replayed figures")
	}
	if report.Replay.ActualCycles != report.Replay.SimulatedCycles+report.Replay.SwitchCostCycles {
		t.Error("replay actual cycles do not account simulated + switch cost")
	}
}
