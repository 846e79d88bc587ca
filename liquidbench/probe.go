package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// benchScale is the workload scale of every request the benchmark sends.
// It is set explicitly everywhere: the zero core.Request.Scale is Tiny.
const benchScale = workload.Small

// recorder collects what the provider seams observe during one run. One
// recorder is shared by every seam of a workload; it is safe for
// concurrent use.
type recorder struct {
	golden map[string]golden // by program fingerprint; read-only once built
	// ref, when set, is sampled before every simulation (refkernel.go).
	ref atomic.Pointer[refTimer]

	mu         sync.Mutex
	leafMs     []float64
	leafBusy   time.Duration
	instr      uint64
	storeMs    []float64
	rpcMs      []float64
	rpcOverMs  []float64
	leafByKey  map[string]time.Duration // fabric: leaf time per measurement, until its RPC returns
	violations []string
}

// golden is the architectural result every run of a registered program
// must end with.
type golden struct {
	app      string
	checksum uint32
}

// newRecorder assembles every registered program at the benchmark scale
// and indexes its golden checksum by image fingerprint, so runs whose
// program arrived over the fabric wire are checked too.
func newRecorder() (*recorder, error) {
	r := &recorder{golden: map[string]golden{}, leafByKey: map[string]time.Duration{}}
	for _, b := range progs.All() {
		prog, err := b.Assemble(benchScale)
		if err != nil {
			return nil, fmt.Errorf("assembling %s: %w", b.Name, err)
		}
		r.golden[measure.Fingerprint(prog)] = golden{app: b.Name, checksum: b.Golden(benchScale)}
	}
	return r, nil
}

// failf records a failed correctness check.
func (r *recorder) failf(format string, args ...any) {
	r.mu.Lock()
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// checkResult verifies a run's architectural outcome against the golden
// model of its program.
func (r *recorder) checkResult(prog *asm.Program, what string, exit, checksum uint32, sampled bool) {
	g, ok := r.golden[measure.Fingerprint(prog)]
	switch {
	case !ok:
		r.failf("%s: program %.12s is not a registered benchmark at scale %s", what, measure.Fingerprint(prog), benchScale)
	case sampled:
		r.failf("%s of %s: run was truncated", what, g.app)
	case exit != 0:
		r.failf("%s of %s: exit code %d", what, g.app, exit)
	case checksum != g.checksum:
		r.failf("%s of %s: checksum %#x, golden %#x", what, g.app, checksum, g.checksum)
	}
}

// measureKey names one measurement across processes' program pointers.
func measureKey(prog *asm.Program, cfg config.Config) string {
	return measure.Fingerprint(prog)[:16] + "/" + measure.ConfigHash(cfg)
}

// callKey carries a *call down the provider stack from a seam to the leaf.
type callKey struct{}

// call accumulates the leaf time spent inside one seam call. Providers
// run their inner provider synchronously on the caller's goroutine, so
// the leaf writes it before the seam reads it.
type call struct{ leaf time.Duration }

// leaf wraps the measure.Simulator: it times every simulation and checks
// its exit code and checksum against the program's golden value.
type leaf struct {
	inner measure.Provider
	rec   *recorder
	keyed bool // record per-measurement leaf time for the fabric seam
}

func (l leaf) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	if t := l.rec.ref.Load(); t != nil {
		t.sample()
	}
	start := time.Now()
	rep, err := l.inner.Measure(ctx, prog, cfg, opts)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	if c, ok := ctx.Value(callKey{}).(*call); ok {
		c.leaf += d
	}
	l.rec.checkResult(prog, "simulation", rep.ExitCode, rep.Checksum, rep.Sampled)
	l.rec.mu.Lock()
	l.rec.leafMs = append(l.rec.leafMs, ms(d))
	l.rec.leafBusy += d
	l.rec.instr += rep.Stats.Instructions
	if l.keyed {
		l.rec.leafByKey[measureKey(prog, cfg)] = d
	}
	l.rec.mu.Unlock()
	return rep, nil
}

// seamKind names the provider a seam wraps.
type seamKind int

const (
	seamPersistent seamKind = iota // measure.Persistent: store time is its time minus leaf time
	seamRemote                     // fabric.Remote: RPC overhead is its time minus the worker's leaf time
)

// seam times the calls through one provider of the stack.
type seam struct {
	kind  seamKind
	inner measure.Provider
	rec   *recorder
}

func (s seam) Measure(ctx context.Context, prog *asm.Program, cfg config.Config, opts platform.Options) (*platform.RunReport, error) {
	c := &call{}
	start := time.Now()
	rep, err := s.inner.Measure(context.WithValue(ctx, callKey{}, c), prog, cfg, opts)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	switch s.kind {
	case seamPersistent:
		s.rec.storeMs = append(s.rec.storeMs, ms(d-c.leaf))
	case seamRemote:
		s.rec.rpcMs = append(s.rec.rpcMs, ms(d))
		key := measureKey(prog, cfg)
		if worker, ok := s.rec.leafByKey[key]; ok {
			s.rec.rpcOverMs = append(s.rec.rpcOverMs, ms(d-worker))
			delete(s.rec.leafByKey, key)
		}
	}
	return rep, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// interval is a closed-open stretch of wall time.
type interval struct{ start, end time.Time }

// covered returns the length of the union of ivs clipped to [from, to).
func covered(ivs []interval, from, to time.Time) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start.Before(from) {
			iv.start = from
		}
		if iv.end.After(to) {
			iv.end = to
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start.Before(clipped[b].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

func spanInterval(s obs.SpanRecord) interval {
	return interval{s.Start, s.Start.Add(s.Duration())}
}

// wrapperSpans are the spans that enclose the pipeline stages rather than
// being one: a wall-time gap under them is unattributed.
var wrapperSpans = map[string]bool{"tune": true, "batch": true}

// spanLog accumulates the spans of the traced requests of one run.
type spanLog struct {
	spans      []obs.SpanRecord
	selfMs     map[string]float64 // span name → summed self time
	windows    time.Duration      // summed wall-time windows
	attributed time.Duration      // part of the windows some stage span covers
}

func newSpanLog() *spanLog { return &spanLog{selfMs: map[string]float64{}} }

// addTrace records one tracer's spans and returns the wall-time
// intervals of its stage spans. Span IDs are unique within one tracer
// only, so each trace is added on its own.
func (l *spanLog) addTrace(spans []obs.SpanRecord) []interval {
	children := map[uint64][]interval{}
	var stages []interval
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], spanInterval(s))
		}
		if !wrapperSpans[s.Name] {
			stages = append(stages, spanInterval(s))
		}
	}
	for _, s := range spans {
		iv := spanInterval(s)
		l.selfMs[s.Name] += ms(s.Duration() - covered(children[s.ID], iv.start, iv.end))
	}
	l.spans = append(l.spans, spans...)
	return stages
}

// addWindow accounts the wall-time window [from, to) and the part of
// it the stage intervals cover.
func (l *spanLog) addWindow(stages []interval, from, to time.Time) {
	l.windows += to.Sub(from)
	l.attributed += covered(stages, from, to)
}

// durations returns the durations in ms of every span with the name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, ms(s.Duration()))
		}
	}
	return out
}

// attr returns the string value of a span attribute ("" when unset).
func attr(s obs.SpanRecord, key string) string {
	a, ok := s.Attr(key)
	if !ok {
		return ""
	}
	return a.Value()
}

// rssRounds is how many rounds of the timed phase peak_rss_mb covers.
// Resident size keeps growing from round to round on some workloads
// (phase-replay: from about 150 MB in round 1 to over 300 MB in round 9),
// so a peak over the whole phase would grow with the number of rounds a
// run fits in, which a faster host makes larger. Two rounds are a fixed
// amount of work that every workload completes in a run.
const rssRounds = 2

// rssSampler tracks the process's resident set size by sampling
// /proc/self/statm every 10 ms while it runs, and records each round's
// peak.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	round  uint64    // bytes, since the last Round call
	rounds []float64 // MB (10^6 bytes), one per Round call
}

// startRSS first collects garbage and returns free memory to the
// system, so the peak reflects the timed phase rather than the set-up.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			b := residentBytes()
			s.mu.Lock()
			s.round = max(s.round, b)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Round ends a round: it records the round's peak and starts the next
// round's from the current resident size.
func (s *rssSampler) Round() {
	b := residentBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rounds = append(s.rounds, float64(max(s.round, b))/1e6)
	s.round = b
}

// Stop ends sampling and returns the peak over the first rssRounds
// rounds and each round's peak, in MB.
func (s *rssSampler) Stop() (float64, []float64) {
	close(s.stop)
	<-s.done
	peak := 0.0
	for _, p := range s.rounds[:min(rssRounds, len(s.rounds))] {
		peak = max(peak, p)
	}
	return peak, s.rounds
}

func residentBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
