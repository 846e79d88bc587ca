// Command liquidbench is liquidarch's end-to-end benchmark: one command
// that runs a seeded workload against the library's public entry points,
// checks every output, and prints each metric by name with its unit.
//
//	liquidbench --workload tune-cold --seed 1 --seconds 25 --trace 0
//
// Run it from the root of a liquidarch checkout (liquidbench/run.sh
// builds it there and does). The workloads are described in
// BENCHMARK.json and in workloads below. With --trace 0 the last line of
// standard output is a JSON object with the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured from outside the
// program at its provider seams, from the spans it already emits and
// from the counters it already keeps. The human-readable lines above it
// also print the figures that are not gated: the wall times
// (setup_wall_s, tune_wall_s, job_latency_p50_ms, job_latency_tail_ms),
// the raw round CPU time (tune_cpu_s) and the reference kernel's sample
// time (ref_kernel_ms) that tune_cpu_rel divides, fail_ratio,
// model_err_pct and replay_err_pct.
//
// Every run writes a record of the host (CPU model, nproc, GOMAXPROCS, Go
// version, commit, source hash) and its result under
// .bench_build/results. The command exits non-zero when any
// correctness check fails: a simulation whose exit code or checksum
// differs from its program's golden model, a report that is not at
// scale small, reports that differ between runs of one seed, fabric or
// daemon results that differ from in-process tunes, or a fabric
// fallback.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric the benchmark reports.
type metricDef struct {
	name, unit string
	lower      bool // lower is better
}

// endToEnd are the gated metrics of a --trace 0 run; BENCHMARK.json
// lists the same names. setup_s is CPU seconds (see cpu.go);
// tune_cpu_rel is a round's CPU time per tuning request as a multiple of
// a reference kernel sample's, measured during the same round (see
// refkernel.go). The wall
// and raw CPU times, printed beside them, spread too widely on a shared
// virtual machine to gate.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"tune_cpu_rel", "ratio", true},
	{"peak_rss_mb", "MB", true},
}

// stages are the span names whose self time a traced run reports.
var stages = []string{"tune", "batch", "model", "measure", "fabric.rpc", "phase.detect", "solve", "validate", "replay", "online"}

// perLayer are the metrics of a --trace 1 run; BENCHMARK.json lists the
// same names. Counts and summed times are per round.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"platform.runs", "count", true},
		{"platform.run_ms_p50", "ms", true},
		{"platform.run_ms_p95", "ms", true},
		{"platform.minstr_per_s", "Minstr/s", false},
		{"platform.fanout_concurrency", "ratio", false},
		{"platform.superblocks_compiled", "count", true},
		{"platform.superblock_hit_rate_pct", "%", false},
		{"platform.parallel_runs", "count", true},
		{"platform.replay_ms", "ms", true},
		{"platform.online_ms", "ms", true},
		{"platform.pool_engines", "count", true},
		{"measure.measure_ms_p50", "ms", true},
		{"measure.measure_ms_p95", "ms", true},
		{"measure.cache_hit_ratio", "ratio", false},
		{"measure.store_ms_p50", "ms", true},
		{"measure.store_loads", "count", true},
		{"measure.store_saves", "count", true},
		{"core.model_ms.build", "ms", true},
		{"core.model_ms.shared", "ms", true},
		{"core.model_ms.disk", "ms", true},
		{"core.model_source.build", "count", true},
		{"core.model_source.shared", "count", true},
		{"core.model_source.disk", "count", true},
		{"core.validate_ms", "ms", true},
		{"core.model_err_pct", "%", true},
		{"core.replay_err_pct", "%", true},
		{"binlp.solve_ms_p50", "ms", true},
		{"binlp.solve_ms_p95", "ms", true},
		{"binlp.nodes", "count", true},
		{"phase.detect_ms", "ms", true},
		{"phase.count", "count", true},
		{"serve.queue_wait_ms_p50", "ms", true},
		{"serve.queue_wait_ms_tail", "ms", true},
		{"serve.exec_ms_p50", "ms", true},
		{"serve.http_ms_p50", "ms", true},
		{"serve.rejected", "count", true},
		{"serve.deduped", "count", true},
		{"fabric.rpc_ms_p50", "ms", true},
		{"fabric.rpc_ms_p95", "ms", true},
		{"fabric.rpc_overhead_ms_p50", "ms", true},
		{"fabric.dispatched", "count", true},
		{"fabric.retries", "count", true},
		{"fabric.fallbacks", "count", true},
		{"fabric.worker_skew", "ratio", true},
		{"obs.tracing_overhead_pct", "%", true},
	}
	for _, s := range stages {
		defs = append(defs, metricDef{"obs.self_ms." + s, "ms", true})
	}
	return append(defs,
		metricDef{"bench.unattributed_pct", "%", true},
		metricDef{"bench.generator_late_ms", "ms", true},
		metricDef{"bench.fail_ratio", "ratio", true},
	)
}()

// options are one run's parameters.
type options struct {
	root    string
	seed    int64
	seconds time.Duration
	trace   bool
	rng     *rand.Rand
}

// outcome is what a workload run measured.
type outcome struct {
	setup, setupCPU []time.Duration // one per set-up repetition
	rounds          []time.Duration // wall time of the rounds run with tracing off
	roundCPU        []time.Duration // CPU time of the same rounds, less the reference kernel's
	roundRel        []float64       // the same rounds' CPU time over the mean reference kernel sample
	refMs           []float64       // the same rounds' mean reference kernel sample, in ms
	traced          []time.Duration // rounds run with tracing on (trace mode)
	tracedCPU       []time.Duration
	// latencyGroups holds per-request latencies in ms, grouped by app
	// for a closed loop and by round for an open one. The latency
	// figures are medians over groups of each group's statistic: a
	// median over two apps' requests would otherwise jump between the
	// two apps' latencies, and one burst of host stalls moves one round,
	// not the result.
	latencyGroups [][]float64
	attempted     int
	failed        int
	rssMB         float64
	digest        string
	modelErr      []float64 // |predicted - validated runtime %| per validated request
	replayErr     []float64 // |Replay.ErrorPct| per replayed request
	layers        map[string]float64
	notes         map[string]string
}

// addRound records an untraced round's CPU time and its cost per tuning
// request relative to the reference kernel samples taken during it. A
// batch counts one request per weighting.
func (o *outcome) addRound(rec *recorder, cpu time.Duration, kernel refTotals, requests int) {
	o.roundCPU = append(o.roundCPU, cpu)
	o.refMs = append(o.refMs, ms(kernel.mean()))
	rel := 0.0
	if kernel.n == 0 || requests == 0 {
		rec.failf("round %d: %d reference kernel samples, %d requests", len(o.roundRel), kernel.n, requests)
	} else {
		rel = cpu.Seconds() / kernel.mean().Seconds() / float64(requests)
	}
	o.roundRel = append(o.roundRel, rel)
}

func (o *outcome) layer(name string, v float64) {
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	o.layers[name] = v
}

func (o *outcome) note(key, format string, args ...any) {
	if o.notes == nil {
		o.notes = map[string]string{}
	}
	o.notes[key] = fmt.Sprintf(format, args...)
}

// workloadFunc runs one seeded traffic mix.
type workloadFunc func(ctx context.Context, opts options, rec *recorder) (*outcome, error)

var workloads = map[string]workloadFunc{
	"tune-cold":     runTuneCold,
	"phase-replay":  runPhaseReplay,
	"serve-restart": runServeRestart,
	"fabric-cold":   runFabricCold,
}

// metricValue and resultLine are the final output line's schema.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "workload seed: request order, arrivals, weightings, worker IDs")
	seconds := flag.Int("seconds", 25, "length of the timed phase, in seconds")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "liquidbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "liquidbench:", err)
		return 1
	}
	h, err := hostRecord(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "liquidbench:", err)
		return 1
	}
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s %s commit=%s source=%.16s\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, orNone(h.Commit), h.Source)

	opts := options{
		root:    root,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		rng:     rand.New(rand.NewSource(*seed)),
	}
	rec, err := newRecorder()
	if err != nil {
		fmt.Fprintln(os.Stderr, "liquidbench:", err)
		return 1
	}
	out, err := w(context.Background(), opts, rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "liquidbench: %s: %v\n", *name, err)
		return 1
	}

	if opts.trace {
		out.layer("core.model_err_pct", mean(out.modelErr))
		out.layer("core.replay_err_pct", mean(out.replayErr))
		out.layer("bench.fail_ratio", failRatio(out))
	}
	line := resultLine{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if opts.trace {
		for _, d := range perLayer {
			line.Metrics[d.name] = metricValue{out.layers[d.name], d.unit}
		}
	} else {
		for _, m := range endToEndValues(out) {
			line.Metrics[m.def.name] = metricValue{m.value, m.def.unit}
			fmt.Printf("%-24s %14.4f %-6s %s\n", m.def.name, m.value, m.def.unit, m.note)
		}
	}
	printUngated(out)
	if opts.trace {
		for _, d := range perLayer {
			fmt.Printf("%-34s %14.4f %s\n", d.name, out.layers[d.name], d.unit)
		}
	}
	for _, k := range sortedKeys(out.notes) {
		fmt.Printf("note: %s: %s\n", k, out.notes[k])
	}

	rec.mu.Lock()
	violations := append([]string(nil), rec.violations...)
	rec.mu.Unlock()
	path, err := saveRecord(root, record{
		Host: h, Workload: *name, Seed: *seed, Seconds: *seconds, Trace: opts.trace,
		Result: line, Notes: out.notes, Digest: out.digest,
	})
	if err != nil {
		violations = append(violations, err.Error())
	} else {
		fmt.Println("record:", path)
	}
	for _, v := range violations {
		fmt.Println("CHECK FAILED:", v)
	}
	line.Correct = len(violations) == 0
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "liquidbench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

type measured struct {
	def   metricDef
	value float64
	note  string
}

// endToEndValues computes the gated metrics, each a median.
func endToEndValues(out *outcome) []measured {
	setup := durSeconds(out.setupCPU)
	return []measured{
		{endToEnd[0], median(setup), fmt.Sprintf("CPU, median of %d set-ups", len(setup))},
		{endToEnd[1], median(out.roundRel), fmt.Sprintf("CPU per request over reference kernel CPU, median of %d rounds", len(out.roundRel))},
		{endToEnd[2], out.rssMB, fmt.Sprintf("peak resident size over the first %d rounds", rssRounds)},
	}
}

// latencyFigures returns the latency median and tail, and a note saying
// which percentiles the tails are.
func latencyFigures(out *outcome) (p50, tailV float64, note string) {
	var mids, tails, pcts []float64
	n := 0
	for _, g := range out.latencyGroups {
		v, p := tail(g)
		mids, tails, pcts = append(mids, median(g)), append(tails, v), append(pcts, p)
		n += len(g)
	}
	return median(mids), median(tails), fmt.Sprintf("median over %d groups of p%v, n=%d", len(tails), pcts, n)
}

// printUngated prints the end-to-end figures that BENCHMARK.json does not
// gate: the wall times, which spread across runs on one host by more
// than any bound; the failure ratio, which also appears as failed over
// attempted; and the accuracy figures, which exist on some workloads only.
func printUngated(out *outcome) {
	p50, tailV, note := latencyFigures(out)
	setup, rounds := durSeconds(out.setup), durSeconds(out.rounds)
	fmt.Printf("%-24s %14.4f %-6s wall, median of %d set-ups\n", "setup_wall_s", median(setup), "s", len(setup))
	fmt.Printf("%-24s %14.4f %-6s wall, median of %d rounds\n", "tune_wall_s", median(rounds), "s", len(rounds))
	fmt.Printf("%-24s %14.4f %-6s CPU, median of %d rounds\n", "tune_cpu_s", median(durSeconds(out.roundCPU)), "s", len(out.roundCPU))
	fmt.Printf("%-24s %14.4f %-6s mean reference kernel sample, median of %d rounds\n", "ref_kernel_ms", median(out.refMs), "ms", len(out.refMs))
	fmt.Printf("%-24s %14.4f %-6s median over %d groups of each group's median\n", "job_latency_p50_ms", p50, "ms", len(out.latencyGroups))
	fmt.Printf("%-24s %14.4f %-6s %s\n", "job_latency_tail_ms", tailV, "ms", note)
	fmt.Printf("%-24s %14.4f %-6s %d of %d operations failed or refused\n", "fail_ratio", failRatio(out), "ratio", out.failed, out.attempted)
	if len(out.modelErr) > 0 {
		fmt.Printf("%-24s %14.4f %-6s mean over %d validated tunes (simulated time)\n", "model_err_pct", mean(out.modelErr), "%", len(out.modelErr))
	}
	if len(out.replayErr) > 0 {
		fmt.Printf("%-24s %14.4f %-6s mean over %d replays (simulated time)\n", "replay_err_pct", mean(out.replayErr), "%", len(out.replayErr))
	}
}

func failRatio(out *outcome) float64 {
	if out.attempted == 0 {
		return 0
	}
	return float64(out.failed) / float64(out.attempted)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
