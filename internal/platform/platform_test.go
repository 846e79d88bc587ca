package platform_test

import (
	"strings"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

const helloSource = `
        .equ    UART, 0x80000100
start:  set     UART, %l0
        set     msg, %l1
loop:   ldub    [%l1], %o0
        cmp     %o0, 0
        be      done
        nop
        st      %o0, [%l0]
        ba      loop
        add     %l1, 1, %l1
done:   clr     %o0
        mov     42, %o1
        halt
        .data
msg:    .asciz  "hello, liquid architecture\n"
`

func TestRunSourceHelloWorld(t *testing.T) {
	rep, err := platform.RunSource(helloSource, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Console != "hello, liquid architecture\n" {
		t.Errorf("console = %q", rep.Console)
	}
	if rep.ExitCode != 0 || rep.Checksum != 42 {
		t.Errorf("exit=%d checksum=%d", rep.ExitCode, rep.Checksum)
	}
	if rep.Cycles() == 0 || rep.Seconds() <= 0 {
		t.Error("missing cycle accounting")
	}
	if err := rep.Stats.ConsistencyError(); err != nil {
		t.Error(err)
	}
}

func TestRunSourceAssemblyError(t *testing.T) {
	if _, err := platform.RunSource("  bogus %g1\n", config.Default()); err == nil {
		t.Error("assembly error should propagate")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := config.Default()
	cfg.DCache.Sets = 7
	if _, err := platform.RunSource("  halt\n", cfg); err == nil {
		t.Error("invalid configuration should error")
	}
}

func TestRunWithInstructionLimit(t *testing.T) {
	src := "loop: ba loop\n  nop\n"
	_, err := platform.RunWith(mustAssemble(t, src), config.Default(), platform.Options{MaxInstructions: 500})
	if err == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Errorf("want instruction-limit error, got %v", err)
	}
}

func TestRunWithSmallRAM(t *testing.T) {
	rep, err := platform.RunWith(mustAssemble(t, "  clr %o0\n  mov 7, %o1\n  halt\n"),
		config.Default(), platform.Options{RAMBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checksum != 7 {
		t.Errorf("checksum = %d", rep.Checksum)
	}
}

func TestCacheStatsExposed(t *testing.T) {
	src := `
start:  set     buf, %l0
        ld      [%l0], %g1
        ld      [%l0+4], %g2
        clr     %o0
        halt
        .data
buf:    .word   1, 2
`
	rep, err := platform.RunSource(src, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DCache.ReadAccesses != 2 || rep.DCache.ReadMisses != 1 {
		t.Errorf("dcache stats = %+v", rep.DCache)
	}
	if rep.ICache.ReadAccesses == 0 {
		t.Error("icache accesses missing")
	}
}

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExecutionTrace(t *testing.T) {
	var buf strings.Builder
	prog := mustAssemble(t, "  mov 1, %g1\n  mov 2, %g2\n  clr %o0\n  halt\n")
	_, err := platform.RunWith(prog, config.Default(), platform.Options{
		TraceWriter: &buf,
		TraceLimit:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("trace should stop at 3 instructions, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "mov 1, %g1") {
		t.Errorf("trace line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[0], "40000000") {
		t.Errorf("trace missing address: %q", lines[0])
	}
}

func TestSampledRunReports(t *testing.T) {
	src := `
start:  set 100000, %g1
loop:   subcc %g1, 1, %g1
        bne loop
        nop
        clr %o0
        halt
`
	prog := mustAssemble(t, src)
	rep, err := platform.RunWith(prog, config.Default(), platform.Options{SampleInstructions: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sampled {
		t.Error("truncated run should report Sampled")
	}
	if rep.Stats.Instructions != 500 {
		t.Errorf("sampled instructions = %d, want 500", rep.Stats.Instructions)
	}
	// A short program finishing inside the sample is not Sampled.
	quick := mustAssemble(t, "  clr %o0\n  halt\n")
	rep2, err := platform.RunWith(quick, config.Default(), platform.Options{SampleInstructions: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Sampled {
		t.Error("completed run must not report Sampled")
	}
}

// TestSuperblocksAlwaysOn: superblock specialization is the simulator's
// only execution mode, so both the pooled engine path and the
// schedule-replay cores compile hot blocks. A fresh assembly of blastn
// gives the program a pool key of its own, so the first run is
// guaranteed to build (and compile on) a new engine. Not parallel: the
// counters are process-wide.
func TestSuperblocksAlwaysOn(t *testing.T) {
	b, _ := progs.ByName("blastn")
	src, err := b.Source(workload.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	prog := mustAssemble(t, src)

	before := platform.Counters()
	for i := 0; i < 2; i++ {
		if _, err := platform.RunWith(prog, config.Default(), platform.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	after := platform.Counters()
	if after.SuperblockCompiled <= before.SuperblockCompiled {
		t.Error("default-options runs compiled no superblocks")
	}
	if after.SuperblockHits <= before.SuperblockHits {
		t.Error("default-options runs never entered a compiled superblock")
	}

	before = after
	steps := []platform.ReplayStep{{Config: config.Default(), Intervals: -1}}
	if _, err := platform.ReplaySchedule(prog, steps, platform.Options{IntervalInstructions: 5_000}); err != nil {
		t.Fatal(err)
	}
	if platform.Counters().SuperblockCompiled <= before.SuperblockCompiled {
		t.Error("schedule replay compiled no superblocks")
	}
}
