package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/fabric"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
	"liquidarch/internal/progs"
)

// A run repeats its set-up and reports the median as setup_s. An
// in-process set-up is a fraction of a second and its first repetition
// pays for fresh engines, so it repeats five times; the daemon's set-up
// fills a store for seconds and repeats three times.
const (
	setupReps      = 5
	serveSetupReps = 3
)

// allApps are the registered applications, in registry order.
var allApps = []string{"blastn", "drr", "frag", "arith", "mix"}

// fabricApps is the fabric-cold subset: two of the tune-cold apps, so a
// round of each compares dispatch overhead on identical simulation work.
var fabricApps = []string{"arith", "drr"}

// phaseApps are the phase-replay apps: three phases each at small scale.
var phaseApps = []string{"mix", "blastn"}

// plainRequests builds one full-space, runtime-weighted tune per app.
func plainRequests(apps []string) []core.Request {
	reqs := make([]core.Request, len(apps))
	for i, app := range apps {
		reqs[i] = core.Request{App: app, Scale: benchScale, Space: config.FullSpace(), Weights: core.RuntimeWeights()}
	}
	return reqs
}

// runTuneCold is the `autoarch -space full` path: a closed loop with one
// client, one fresh Session and fresh measurement cache per request and
// no store, so every tune simulates its ~52 configurations.
func runTuneCold(ctx context.Context, opts options, rec *recorder) (*outcome, error) {
	out := &outcome{}
	if err := repeatSetup(out, setupReps, func() (func(), error) {
		return nil, checkBaseRuns(ctx, leaf{inner: measure.Simulator{}, rec: rec}, allApps, platform.Options{})
	}); err != nil {
		return nil, err
	}
	loop := closedLoop{
		requests: plainRequests(allApps),
		newCache: func() *measure.Cache { return measure.NewCache(leaf{inner: measure.Simulator{}, rec: rec}, 0) },
	}
	if err := loop.run(ctx, opts, rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// runPhaseReplay is phase-aware tuning with schedule replay and online
// adaptation: interval-profiled runs, phase detection, and replay cores
// built outside the engine pool.
func runPhaseReplay(ctx context.Context, opts options, rec *recorder) (*outcome, error) {
	out := &outcome{}
	if err := repeatSetup(out, setupReps, func() (func(), error) {
		return nil, checkBaseRuns(ctx, leaf{inner: measure.Simulator{}, rec: rec}, allApps,
			platform.Options{IntervalInstructions: core.DefaultIntervalInstructions})
	}); err != nil {
		return nil, err
	}
	reqs := make([]core.Request, len(phaseApps))
	for i, app := range phaseApps {
		reqs[i] = core.Request{App: app, Scale: benchScale, Phases: &core.PhaseOptions{}, Replay: true, Online: true}
	}
	loop := closedLoop{
		requests: reqs,
		newCache: func() *measure.Cache { return measure.NewCache(leaf{inner: measure.Simulator{}, rec: rec}, 0) },
	}
	if err := loop.run(ctx, opts, rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// runFabricCold sends tune-cold requests through Cache(fabric.Remote) to
// two loopback workers with concurrency 1 each. The workers simulate
// without a cache, so the simulation work equals tune-cold's and the
// difference between the two is dispatch overhead.
func runFabricCold(ctx context.Context, opts options, rec *recorder) (*outcome, error) {
	out := &outcome{}
	ids := workerIDs(opts)
	var fab *fabricNet
	if err := repeatSetup(out, setupReps, func() (func(), error) {
		f, err := startFabric(rec, ids)
		if err != nil {
			return nil, err
		}
		fab = f
		return f.close, checkBaseRuns(ctx, f.remote, allApps, platform.Options{})
	}); err != nil {
		return nil, err
	}
	defer fab.close()

	served0 := fab.served()
	remote0 := fab.remote.Stats()
	loop := closedLoop{
		requests: plainRequests(fabricApps),
		newCache: func() *measure.Cache {
			return measure.NewCache(seam{kind: seamRemote, inner: fab.remote, rec: rec}, 0)
		},
	}
	if err := loop.run(ctx, opts, rec, out); err != nil {
		return nil, err
	}
	remote := fab.remote.Stats()
	if remote.Fallbacks != 0 {
		rec.failf("fabric: %d measurements fell back to local simulation", remote.Fallbacks)
	}
	served := fab.served()
	lo, hi := math.MaxFloat64, 0.0
	for i := range served {
		n := float64(served[i] - served0[i])
		lo, hi = math.Min(lo, n), math.Max(hi, n)
	}
	out.note("fabric.workers", "%v served %v over the timed phase", ids, diff(served, served0))

	// The fabric must return exactly what a local tune does.
	for _, req := range plainRequests(fabricApps) {
		sess := core.NewSession(core.SessionOptions{Provider: measure.NewCache(leaf{inner: measure.Simulator{}, rec: rec}, 0)})
		rep, err := sess.Tune(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("local reference tune of %s: %w", req.App, err)
		}
		loop.compare(rec, requestKey(req), rep, "local tune-cold report")
	}

	if opts.trace {
		rounds := float64(len(out.rounds) + len(out.traced))
		rec.mu.Lock()
		out.layer("fabric.rpc_ms_p50", median(rec.rpcMs))
		p95, _ := percentile(rec.rpcMs, 95)
		out.layer("fabric.rpc_ms_p95", p95)
		out.layer("fabric.rpc_overhead_ms_p50", median(rec.rpcOverMs))
		rec.mu.Unlock()
		out.layer("fabric.dispatched", float64(remote.Dispatched-remote0.Dispatched)/rounds)
		out.layer("fabric.retries", float64(remote.Retries-remote0.Retries)/rounds)
		out.layer("fabric.fallbacks", float64(remote.Fallbacks-remote0.Fallbacks)/rounds)
		if lo > 0 {
			out.layer("fabric.worker_skew", hi/lo)
		}
	}
	return out, nil
}

// workerIDs draws the two fabric worker IDs from the seed; the IDs set
// the rendezvous split of configurations between the workers.
func workerIDs(opts options) []string {
	a := fmt.Sprintf("worker-%04x", opts.rng.Intn(1<<16))
	b := a
	for b == a {
		b = fmt.Sprintf("worker-%04x", opts.rng.Intn(1<<16))
	}
	return []string{a, b}
}

func diff(a, b []uint64) []uint64 {
	d := make([]uint64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// fabricNet is a coordinator-side fabric.Remote with its loopback
// workers.
type fabricNet struct {
	remote  *fabric.Remote
	workers []*fabric.Worker
	servers []*http.Server
	wg      sync.WaitGroup
}

// startFabric starts one loopback worker per ID, each simulating without
// a cache at concurrency 1, and registers it with a new Remote whose
// local fallback simulates too.
func startFabric(rec *recorder, ids []string) (*fabricNet, error) {
	reg := fabric.NewRegistry()
	f := &fabricNet{}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		w := fabric.NewWorker(leaf{inner: measure.Simulator{}, rec: rec, keyed: true}, 1)
		mux := http.NewServeMux()
		mux.Handle("POST /v1/measure", w)
		srv := &http.Server{Handler: mux}
		f.workers = append(f.workers, w)
		f.servers = append(f.servers, srv)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		// Registered once for the whole run: no heartbeat is needed.
		if err := reg.Register(fabric.Registration{ID: id, URL: "http://" + ln.Addr().String(), TTLSeconds: 86400}); err != nil {
			f.close()
			return nil, err
		}
	}
	f.remote = fabric.NewRemote(reg, leaf{inner: measure.Simulator{}, rec: rec}, fabric.RemoteOptions{})
	return f, nil
}

func (f *fabricNet) served() []uint64 {
	s := make([]uint64, len(f.workers))
	for i, w := range f.workers {
		s[i] = w.Stats().Served
	}
	return s
}

// close stops the workers and waits for their servers to return.
func (f *fabricNet) close() {
	for _, srv := range f.servers {
		_ = srv.Close()
	}
	f.wg.Wait()
	f.servers = nil
}

// repeatSetup runs setup reps times, timing each in wall and CPU time.
// Every repetition but the last is torn down (untimed) by the cleanup it
// returns. Each starts after an untimed garbage collection, so none pays
// for the garbage the ones before it left.
func repeatSetup(out *outcome, reps int, setup func() (cleanup func(), err error)) error {
	for i := 0; i < reps; i++ {
		runtime.GC()
		cpu0, start := cpuTime(), time.Now()
		cleanup, err := setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(start))
		out.setupCPU = append(out.setupCPU, cpuTime()-cpu0)
		if cleanup != nil && i < reps-1 {
			cleanup()
		}
	}
	return nil
}

// checkBaseRuns runs every app once on the base configuration through p,
// so a broken program or provider stack fails before anything is timed
// (the leaf checks the result).
func checkBaseRuns(ctx context.Context, p measure.Provider, apps []string, runOpts platform.Options) error {
	for _, app := range apps {
		b, _ := progs.ByName(app)
		prog, err := b.Assemble(benchScale)
		if err != nil {
			return err
		}
		if _, err := p.Measure(ctx, prog, config.Default(), runOpts); err != nil {
			return fmt.Errorf("base run of %s: %w", app, err)
		}
	}
	return nil
}

// requestKey names a request for the report-identity checks.
func requestKey(req core.Request) string {
	mode := "plain"
	if req.Phases != nil {
		mode = "phases+replay+online"
	}
	space := req.Space
	if space == nil {
		space = config.FullSpace()
	}
	return fmt.Sprintf("%s/%s/%s", req.App, space.Fingerprint()[:8], mode)
}

// closedLoop is one client sending each round's requests back to back:
// the next request goes only after the previous one returns, until the
// run's time is up. The seed permutes the order of every round.
type closedLoop struct {
	requests []core.Request
	// newCache builds the fresh measurement stack each request gets.
	newCache func() *measure.Cache

	reports map[string][]byte // first report seen per request key
}

// compare checks a report against the first one seen for its request.
func (c *closedLoop) compare(rec *recorder, key string, rep *core.Report, what string) {
	data, err := json.Marshal(rep)
	if err != nil {
		rec.failf("%s: encoding report: %v", key, err)
		return
	}
	if first, ok := c.reports[key]; !ok {
		c.reports[key] = data
	} else if string(first) != string(data) {
		rec.failf("%s: %s differs from the first report of the run", key, what)
	}
}

// check verifies one report and collects its accuracy figures.
func (c *closedLoop) check(rec *recorder, req core.Request, rep *core.Report, out *outcome) {
	key := requestKey(req)
	if rep.Scale != benchScale.String() {
		rec.failf("%s: report scale %q, want %q", key, rep.Scale, benchScale)
	}
	c.compare(rec, key, rep, "report")
	if req.Phases == nil {
		if rep.Validation == nil {
			rec.failf("%s: report has no validation", key)
			return
		}
		out.modelErr = append(out.modelErr, math.Abs(rep.Recommendation.Predicted.RuntimePct-rep.Validation.RuntimePct))
		return
	}
	if rep.Phases == nil || rep.Replay == nil || rep.Online == nil {
		rec.failf("%s: report lacks its phases, replay or online block", key)
		return
	}
	b, _ := progs.ByName(req.App)
	prog, err := b.Assemble(benchScale)
	if err != nil {
		rec.failf("%s: %v", key, err)
		return
	}
	rec.checkResult(prog, "schedule replay", rep.Replay.ExitCode, rep.Replay.Checksum, rep.Replay.Sampled)
	rec.checkResult(prog, "online replay", rep.Online.ExitCode, rep.Online.Checksum, rep.Online.Sampled)
	out.replayErr = append(out.replayErr, math.Abs(rep.Replay.ErrorPct))
}

// digest hashes every request's report, in key order.
func (c *closedLoop) digest() string {
	h := sha256.New()
	for _, k := range sortedKeys(c.reports) {
		fmt.Fprintf(h, "%s\x00%d\x00", k, len(c.reports[k]))
		h.Write(c.reports[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// run measures rounds until the run's time is up, each in wall and CPU
// time. In trace mode the rounds alternate between untraced and traced,
// so the tracing overhead is measured within one process, and the
// per-layer figures come from the traced rounds.
func (c *closedLoop) run(ctx context.Context, opts options, rec *recorder, out *outcome) error {
	c.reports = map[string][]byte{}
	spans := newSpanLog()
	var hits, misses uint64
	var tracedBusy time.Duration
	var phases []float64
	latencies := map[string][]float64{}
	var perReq []string

	rec.mu.Lock()
	runs0, busy0, instr0 := len(rec.leafMs), rec.leafBusy, rec.instr
	rec.mu.Unlock()
	ctr0 := platform.Counters()
	// Untraced rounds sample the reference kernel before every
	// simulation; traced rounds do not, so their spans hold no samples.
	ref := newRefTimer(rec)
	defer rec.ref.Store(nil)
	rss := startRSS()
	start := time.Now()
	var last time.Duration // wall time of the previous round
	for r := 0; ; r++ {
		// Stop before a round expected to end more than half a round past
		// the run's time, so a run lasts about --seconds on average.
		if time.Since(start)+last/2 >= opts.seconds && len(out.rounds) > 0 && (!opts.trace || len(out.traced) > 0) {
			break
		}
		traced := opts.trace && r%2 == 1
		if traced {
			rec.ref.Store(nil)
		} else {
			rec.ref.Store(ref)
		}
		rec.mu.Lock()
		roundBusy := rec.leafBusy
		rec.mu.Unlock()
		var stageIvs []interval
		ref0, cpu0 := ref.totals(), cpuTime()
		roundStart := time.Now()
		for _, i := range opts.rng.Perm(len(c.requests)) {
			req := c.requests[i]
			cache := c.newCache()
			sess := core.NewSession(core.SessionOptions{Provider: cache})
			rctx := ctx
			var tr *obs.Tracer
			if traced {
				tr = obs.NewTracer(obs.TracerOptions{MaxSpans: 1 << 16})
				rctx = obs.WithTracer(ctx, tr)
			}
			t0 := time.Now()
			rep, err := sess.Tune(rctx, req)
			lat := time.Since(t0)
			out.attempted++
			st := cache.Stats()
			hits += st.Hits
			misses += st.Misses
			if traced {
				tr.Finish()
				stageIvs = append(stageIvs, spans.addTrace(tr.Snapshot().Spans)...)
			} else {
				latencies[requestKey(req)] = append(latencies[requestKey(req)], ms(lat))
				perReq = append(perReq, fmt.Sprintf("%s=%.0f", req.App, ms(lat)))
			}
			if err != nil {
				out.failed++
				out.note("error", "%s: %v", requestKey(req), err)
				continue
			}
			c.check(rec, req, rep, out)
			if rep.Phases != nil {
				phases = append(phases, float64(rep.Phases.Trace.Phases))
			}
		}
		wall := time.Since(roundStart)
		kernel := ref.totals().since(ref0)
		roundCPU := cpuTime() - cpu0 - kernel.cpu
		rss.Round()
		last = wall
		if traced {
			out.traced = append(out.traced, wall)
			out.tracedCPU = append(out.tracedCPU, roundCPU)
			spans.addWindow(stageIvs, roundStart, roundStart.Add(wall))
			rec.mu.Lock()
			tracedBusy += rec.leafBusy - roundBusy
			rec.mu.Unlock()
		} else {
			out.rounds = append(out.rounds, wall)
			out.addRound(rec, roundCPU, kernel, len(c.requests))
			out.note(fmt.Sprintf("round%02d", r), "wall %.3fs cpu %.3fs, kernel %d x %.3fms, rel %.1f, ms per request %v",
				wall.Seconds(), roundCPU.Seconds(), kernel.n, ms(kernel.mean()), out.roundRel[len(out.roundRel)-1], perReq)
		}
		perReq = nil
	}
	var roundPeaks []float64
	out.rssMB, roundPeaks = rss.Stop()
	out.note("rss_rounds_mb", "%.1f", roundPeaks)
	out.digest = c.digest()
	for _, k := range sortedKeys(latencies) {
		out.latencyGroups = append(out.latencyGroups, latencies[k])
	}
	if !opts.trace {
		return nil
	}

	ctr := platform.Counters()
	rounds := float64(len(out.rounds) + len(out.traced))
	nTraced := float64(len(out.traced))
	rec.mu.Lock()
	leafMs := append([]float64(nil), rec.leafMs[runs0:]...)
	busy, instr := rec.leafBusy-busy0, rec.instr-instr0
	rec.mu.Unlock()
	platformLayers(out, leafMs, busy, instr, ctr0, ctr, rounds)
	if model := sum(spans.durations("model")); model > 0 {
		out.layer("platform.fanout_concurrency", ms(tracedBusy)/model)
	}
	if hits+misses > 0 {
		out.layer("measure.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	out.layer("phase.count", mean(phases))
	spanLayers(out, spans, nTraced)
	if base := median(durSeconds(out.roundCPU)); base > 0 {
		out.layer("obs.tracing_overhead_pct", 100*(median(durSeconds(out.tracedCPU))-base)/base)
	}
	return nil
}

// platformLayers fills the simulator's per-layer figures from the leaf
// seam and the platform counters.
func platformLayers(out *outcome, leafMs []float64, busy time.Duration, instr uint64, ctr0, ctr platform.TuningCounters, rounds float64) {
	out.layer("platform.runs", float64(len(leafMs))/rounds)
	out.layer("platform.run_ms_p50", median(leafMs))
	p95, _ := percentile(leafMs, 95)
	out.layer("platform.run_ms_p95", p95)
	if busy > 0 {
		out.layer("platform.minstr_per_s", float64(instr)/busy.Seconds()/1e6)
	}
	out.layer("platform.superblocks_compiled", float64(ctr.SuperblockCompiled-ctr0.SuperblockCompiled)/rounds)
	hits, deopts := ctr.SuperblockHits-ctr0.SuperblockHits, ctr.SuperblockDeopts-ctr0.SuperblockDeopts
	if hits+deopts > 0 {
		out.layer("platform.superblock_hit_rate_pct", 100*float64(hits)/float64(hits+deopts))
	}
	out.layer("platform.parallel_runs", float64(ctr.ParallelRuns-ctr0.ParallelRuns)/rounds)
	out.layer("platform.pool_engines", float64(platform.PoolSnapshot().Engines))
}

// spanLayers fills the figures read from spans: per-stage durations and
// self times, and the share of wall time no stage covers.
func spanLayers(out *outcome, spans *spanLog, nTraced float64) {
	if nTraced == 0 {
		return
	}
	out.layer("platform.replay_ms", sum(spans.durations("replay"))/nTraced)
	out.layer("platform.online_ms", sum(spans.durations("online"))/nTraced)
	measureMs := spans.durations("measure")
	out.layer("measure.measure_ms_p50", median(measureMs))
	p95, _ := percentile(measureMs, 95)
	out.layer("measure.measure_ms_p95", p95)
	var nodes []float64
	for _, s := range spans.spans {
		switch s.Name {
		case "model":
			if src := attr(s, "source"); src == "build" || src == "shared" || src == "disk" {
				out.layer("core.model_ms."+src, out.layers["core.model_ms."+src]+ms(s.Duration())/nTraced)
				out.layer("core.model_source."+src, out.layers["core.model_source."+src]+1/nTraced)
			}
		case "solve":
			if a, ok := s.Attr("nodes"); ok {
				nodes = append(nodes, float64(a.Int))
			}
		}
	}
	out.layer("binlp.nodes", mean(nodes))
	out.layer("core.validate_ms", sum(spans.durations("validate"))/nTraced)
	solves := spans.durations("solve")
	out.layer("binlp.solve_ms_p50", median(solves))
	p95, _ = percentile(solves, 95)
	out.layer("binlp.solve_ms_p95", p95)
	out.layer("phase.detect_ms", sum(spans.durations("phase.detect"))/nTraced)
	for _, st := range stages {
		out.layer("obs.self_ms."+st, spans.selfMs[st]/nTraced)
	}
	if spans.windows > 0 {
		out.layer("bench.unattributed_pct", 100*(1-float64(spans.attributed)/float64(spans.windows)))
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
