package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"liquidarch/internal/config"
	"liquidarch/internal/core"
	"liquidarch/internal/measure"
	"liquidarch/internal/obs"
	"liquidarch/internal/platform"
	"liquidarch/internal/serve"
)

// serve-restart traffic. The rate is the one at which a probe of a
// restarted replica measured p50 1.7 ms and p99 145 ms on a 2-vCPU host;
// at 150 jobs/s a backlog grew. The other figures are assumed, not
// measured from real traffic: a tenth of arrivals batch three
// weightings, two of the eight palette weightings are fresh, and the
// replica's memory tiers hold about a third of the working set, so
// memory stays cold and most jobs read a model artifact and a store
// entry from disk.
const (
	arrivalRate     = 50.0 // arrivals per second, Poisson (probed)
	batchShare      = 0.1  // share of arrivals that are POST /v1/batch (assumed)
	batchSize       = 3    // weightings per batch (assumed)
	freshWeightings = 2    // palette entries the set-up leaves out (assumed)
	roundSeconds    = 5    // scheduled time per round: 250 arrivals on average
	maxConns        = 2    // client connections that submit jobs

	// The working set is 6 models and about 40 validated configurations
	// (assumed tier sizes: a third of each).
	replicaModels       = 2
	replicaMeasurements = 16
)

// serveApps and serveSpaces are the job mix's applications and decision
// spaces; every combination is modeled by the set-up.
var (
	serveApps   = []string{"blastn", "drr", "arith"}
	serveSpaces = []string{"full", "dcache"}
)

// palette is the objective weightings jobs draw from.
var palette = []serve.Weighting{
	{W1: 100, W2: 1}, {W1: 100, W2: 0.5}, {W1: 100, W2: 2}, {W1: 100, W2: 5},
	{W1: 50, W2: 1}, {W1: 20, W2: 1}, {W1: 100, W2: 1, W3: 10}, {W1: 100, W2: 1, W3: 50},
}

// arrival is one scheduled request of the open loop and what became of it.
type arrival struct {
	offset  time.Duration // due time, from the start of the timed phase
	due     time.Time
	app     string
	space   string
	weights []serve.Weighting // one for a job, batchSize for a batch

	late    time.Duration // how late the generator sent it
	done    time.Time     // terminal status line received
	refused bool          // 503
	status  *jobStatus
	err     error
}

func (a *arrival) batch() bool { return len(a.weights) > 1 }

// jobStatus is the part of the daemon's JobStatus the client reads; the
// results stay raw so they are compared byte for byte.
type jobStatus struct {
	ID       string            `json:"id"`
	State    string            `json:"state"`
	Error    string            `json:"error"`
	Result   json.RawMessage   `json:"result"`
	Results  []json.RawMessage `json:"results"`
	Created  time.Time         `json:"created"`
	Started  *time.Time        `json:"started"`
	Finished *time.Time        `json:"finished"`
}

// daemon is an autoarchd replica served on a loopback listener.
type daemon struct {
	server *serve.Server
	cache  *measure.Cache
	store  *measure.Store
	http   *http.Server
	url    string
	wg     sync.WaitGroup
}

// startDaemon starts a replica over the store and model directories with
// the Cache(Persistent(Simulator)) stack, seams around Persistent and the
// leaf.
func startDaemon(rec *recorder, storeDir, modelDir string) (*daemon, error) {
	store, err := measure.NewStore(storeDir)
	if err != nil {
		return nil, err
	}
	models, err := core.NewModelStore(modelDir)
	if err != nil {
		return nil, err
	}
	persistent := measure.NewPersistent(leaf{inner: measure.Simulator{}, rec: rec}, store)
	d := &daemon{store: store, cache: measure.NewCache(seam{kind: seamPersistent, inner: persistent, rec: rec}, replicaMeasurements)}
	d.server = serve.New(serve.Options{
		Workers:           2,
		Provider:          d.cache,
		Store:             store,
		ModelStore:        models,
		ModelCacheEntries: replicaModels,
		RetainJobs:        -1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.server.Close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.server.Handler()}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

// close stops the listener, then the scheduler, and waits for both.
func (d *daemon) close() {
	_ = d.http.Close()
	d.wg.Wait()
	d.server.Close()
}

// daemonCounters are the counters a replica and the seams keep, read at
// the start and the end of the timed phase.
type daemonCounters struct {
	runs, storeCalls int
	busy             time.Duration
	instr            uint64
	platform         platform.TuningCounters
	cache            measure.CacheStats
	store            measure.StoreStats
	deduped          uint64
}

func (d *daemon) counters(rec *recorder) daemonCounters {
	rec.mu.Lock()
	c := daemonCounters{runs: len(rec.leafMs), storeCalls: len(rec.storeMs), busy: rec.leafBusy, instr: rec.instr}
	rec.mu.Unlock()
	c.platform = platform.Counters()
	c.cache, c.store = d.cache.Stats(), d.store.Stats()
	c.deduped = d.server.MetricsSnapshot().Scheduler.Deduped
	return c
}

// fill has a first replica model every app × space and validate every
// covered weighting, so the store and the artifact directory are warm.
func fill(rec *recorder, storeDir, modelDir string, covered []serve.Weighting) error {
	d, err := startDaemon(rec, storeDir, modelDir)
	if err != nil {
		return err
	}
	defer d.close()
	var ids []string
	for _, app := range serveApps {
		for _, space := range serveSpaces {
			st, err := d.server.SubmitBatch(serve.BatchRequest{
				JobRequest: serve.JobRequest{App: app, Scale: benchScale.String(), Space: space},
				Weightings: covered,
			})
			if err != nil {
				return err
			}
			ids = append(ids, st.ID)
		}
	}
	for _, id := range ids {
		for {
			st, ok := d.server.Job(id)
			if !ok {
				return fmt.Errorf("fill job %s vanished", id)
			}
			if st.Terminal() {
				if st.State != serve.StateDone {
					return fmt.Errorf("fill job %s: %s %s", id, st.State, st.Error)
				}
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// runServeRestart is a restarted autoarchd replica, disk warm and memory
// cold, under seeded open-loop Poisson traffic from two connections.
func runServeRestart(ctx context.Context, opts options, rec *recorder) (*outcome, error) {
	out := &outcome{}
	perm := opts.rng.Perm(len(palette))
	var covered []serve.Weighting
	for _, i := range perm[freshWeightings:] {
		covered = append(covered, palette[i])
	}
	var fresh []string
	for _, i := range perm[:freshWeightings] {
		fresh = append(fresh, fmt.Sprint(palette[i]))
	}
	out.note("serve.fresh_weightings", "%s", strings.Join(fresh, " "))

	work := filepath.Join(opts.root, buildDir, "work", fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(work)
	var d *daemon
	rep := 0
	if err := repeatSetup(out, serveSetupReps, func() (func(), error) {
		rep++
		dir := filepath.Join(work, fmt.Sprint(rep))
		storeDir, modelDir := filepath.Join(dir, "store"), filepath.Join(dir, "models")
		if err := fill(rec, storeDir, modelDir, covered); err != nil {
			return nil, err
		}
		nd, err := startDaemon(rec, storeDir, modelDir)
		if err != nil {
			return nil, err
		}
		if err := healthy(nd.url); err != nil {
			nd.close()
			return nil, err
		}
		d = nd
		return func() { nd.close(); os.RemoveAll(dir) }, nil
	}); err != nil {
		return nil, err
	}
	defer d.close()

	arrivals := schedule(opts)
	before := d.counters(rec)

	// Jobs are submitted over at most maxConns connections. Each waits
	// for its terminal state on a connection of its own, so a job in
	// flight never holds up the next submission in the client and
	// queueing, admission and deduplication happen in the daemon.
	submit := &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}}
	defer submit.CloseIdleConnections()
	follow := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer follow.CloseIdleConnections()
	// The generator runs on an OS thread of its own, so the CPU time it
	// spends waiting for due times is taken out of each round's CPU time:
	// cpuAt and genAt hold the process's and the generator's CPU time at
	// each round's first arrival and at the end.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	nRounds := max(1, int(opts.seconds.Seconds()/roundSeconds))
	first := func(r int) int { return r * len(arrivals) / nRounds }
	var cpuAt, genAt []time.Duration
	// The generator samples the reference kernel in the gaps between
	// arrivals that leave room for a sample (refkernel.go); its thread's
	// CPU time, samples included, is already out of the rounds' CPU time.
	ref := newRefTimer(rec)
	var refAt []refTotals
	rss := startRSS()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range arrivals {
		a := &arrivals[i]
		a.due = start.Add(a.offset)
		if len(cpuAt) < nRounds && i == first(len(cpuAt)) {
			if len(cpuAt) > 0 {
				rss.Round()
			}
			cpuAt, genAt, refAt = append(cpuAt, cpuTime()), append(genAt, threadCPUTime()), append(refAt, ref.totals())
		}
		waitUntil(a.due)
		a.late = time.Since(a.due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.status, a.refused, a.err = submitAndWait(ctx, submit, follow, d.url, a)
			a.done = time.Now()
		}()
		if i+1 < len(arrivals) && time.Until(start.Add(arrivals[i+1].offset)) > refGap {
			ref.sample()
		}
	}
	wg.Wait()
	cpuAt, genAt, refAt = append(cpuAt, cpuTime()), append(genAt, threadCPUTime()), append(refAt, ref.totals())
	rss.Round()
	var roundPeaks []float64
	out.rssMB, roundPeaks = rss.Stop()
	out.note("rss_rounds_mb", "%.1f", roundPeaks)
	after := d.counters(rec)

	// Rounds split the arrivals into equal runs of consecutive ones. The
	// latency figures are medians over rounds of each round's median and
	// tail, so one burst of host stalls moves one round, not the result.
	// A round's CPU time is the process's less the generator's, from the
	// round's first arrival to the next round's (to the last job's end for
	// the last round): the daemon's and its clients' work. The number of
	// tuning requests in a round varies with the seed, so the gated cost
	// is per request. A round's wall
	// time is the daemon's busy time serving it: the sum, over its
	// flights, of Finished - Started. Jobs deduplicated onto one flight
	// share its Started time and count once.
	var lateMs []float64
	for r := 0; r < nRounds; r++ {
		round := arrivals[first(r):first(r+1)]
		requests := 0
		for _, a := range round {
			requests += len(a.weights)
		}
		kernel := refAt[r+1].since(refAt[r])
		out.addRound(rec, cpuAt[r+1]-cpuAt[r]-(genAt[r+1]-genAt[r]), kernel, requests)
		var lat []float64
		var busy time.Duration
		flights := map[time.Time]bool{}
		for i := range round {
			a := &round[i]
			out.attempted++
			lateMs = append(lateMs, ms(a.late))
			switch {
			case a.refused:
				out.failed++
			case a.err != nil:
				out.failed++
				out.note("error", "%v", a.err)
			case a.status.State != serve.StateDone:
				out.failed++
				out.note("error", "job %s: %s %s", a.status.ID, a.status.State, a.status.Error)
			default:
				lat = append(lat, ms(a.done.Sub(a.due)))
				if st := a.status; st.Started != nil && st.Finished != nil && !flights[*st.Started] {
					flights[*st.Started] = true
					busy += st.Finished.Sub(*st.Started)
				}
			}
		}
		out.rounds = append(out.rounds, busy)
		out.latencyGroups = append(out.latencyGroups, lat)
		out.note(fmt.Sprintf("round%02d", r), "busy %.3fs over %d flights, cpu %.3fs, kernel %d x %.3fms, rel %.3f, %d arrivals, %d requests, p50 %.2fms",
			busy.Seconds(), len(flights), out.roundCPU[r].Seconds(), kernel.n, ms(kernel.mean()), out.roundRel[r], len(round), requests, median(lat))
	}

	digest, err := verifyJobs(ctx, rec, d.store, arrivals, out)
	if err != nil {
		return nil, err
	}
	out.digest = digest
	if !opts.trace {
		return out, nil
	}

	spans := newSpanLog()
	flights := map[time.Time][]interval{}
	var queue, exec, httpMs []float64
	for i := range arrivals {
		a := &arrivals[i]
		if a.status == nil || a.status.State != serve.StateDone || a.status.Started == nil || a.status.Finished == nil {
			continue
		}
		doc, err := fetchTrace(follow, d.url, a.status.ID)
		if err != nil {
			return nil, err
		}
		ivs, seen := flights[doc.Started]
		if !seen {
			ivs = spans.addTrace(flatten(doc.Spans))
			flights[doc.Started] = ivs
		}
		spans.addWindow(ivs, a.due, a.done)
		st := a.status
		queue = append(queue, ms(st.Started.Sub(st.Created)))
		exec = append(exec, ms(st.Finished.Sub(*st.Started)))
		httpMs = append(httpMs, ms(a.done.Sub(a.due)-st.Finished.Sub(st.Created)))
	}
	rounds := float64(len(out.rounds))
	rec.mu.Lock()
	leafMs := append([]float64(nil), rec.leafMs[before.runs:after.runs]...)
	storeMs := append([]float64(nil), rec.storeMs[before.storeCalls:after.storeCalls]...)
	rec.mu.Unlock()
	platformLayers(out, leafMs, after.busy-before.busy, after.instr-before.instr, before.platform, after.platform, rounds)
	spanLayers(out, spans, rounds)
	hits, misses := after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses
	if hits+misses > 0 {
		out.layer("measure.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	out.layer("measure.store_ms_p50", median(storeMs))
	out.layer("measure.store_loads", float64(after.store.Loads-before.store.Loads)/rounds)
	out.layer("measure.store_saves", float64(after.store.Saves-before.store.Saves)/rounds)
	out.layer("serve.queue_wait_ms_p50", median(queue))
	qt, _ := tail(queue)
	out.layer("serve.queue_wait_ms_tail", qt)
	out.layer("serve.exec_ms_p50", median(exec))
	out.layer("serve.http_ms_p50", median(httpMs))
	refused := 0
	for _, a := range arrivals {
		if a.refused {
			refused++
		}
	}
	out.layer("serve.rejected", float64(refused)/rounds)
	out.layer("serve.deduped", float64(after.deduped-before.deduped)/rounds)
	lt, _ := tail(lateMs)
	out.layer("bench.generator_late_ms", lt)
	out.note("obs.tracing_overhead_pct", "0: the daemon traces every flight, so there is no untraced baseline")
	return out, nil
}

// spinWindow is how long before a due time the generator stops sleeping
// and spins instead: a sleeping Go program wakes with about a
// millisecond of slack, which would otherwise be counted as latency. The
// spin does not yield: the generator is locked to its thread, and
// yielding would hand that thread's processor to another thread and back
// on every turn.
const spinWindow = 2 * time.Millisecond

// refGap is the least time to the next due time in which the generator
// takes a reference kernel sample: a sample, the spin window and slack.
const refGap = 4 * time.Millisecond

func waitUntil(due time.Time) {
	if d := time.Until(due) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
	}
}

// schedule draws the run's arrivals from the seed: Poisson arrival times
// over the run's length, each a job
// or a batch for a random app, space and weighting.
func schedule(opts options) []arrival {
	var arrivals []arrival
	var t time.Duration
	for {
		t += time.Duration(opts.rng.ExpFloat64() / arrivalRate * float64(time.Second))
		if t >= opts.seconds {
			return arrivals
		}
		a := arrival{
			offset: t,
			app:    serveApps[opts.rng.Intn(len(serveApps))],
			space:  serveSpaces[opts.rng.Intn(len(serveSpaces))],
		}
		n := 1
		if opts.rng.Float64() < batchShare {
			n = batchSize
		}
		for _, i := range opts.rng.Perm(len(palette))[:n] {
			a.weights = append(a.weights, palette[i])
		}
		arrivals = append(arrivals, a)
	}
}

// submitAndWait posts the arrival through submit and follows its status
// stream through follow to the terminal line.
func submitAndWait(ctx context.Context, submit, follow *http.Client, url string, a *arrival) (st *jobStatus, refused bool, err error) {
	tmpl := serve.JobRequest{App: a.app, Scale: benchScale.String(), Space: a.space}
	var body any
	path := "/v1/jobs"
	if a.batch() {
		body, path = serve.BatchRequest{JobRequest: tmpl, Weightings: a.weights}, "/v1/batch"
	} else {
		w := a.weights[0]
		tmpl.W1, tmpl.W2, tmpl.W3 = &w.W1, &w.W2, &w.W3
		body = tmpl
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path, bytes.NewReader(data))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := submit.Do(req)
	if err != nil {
		return nil, false, err
	}
	var posted jobStatus
	err = json.NewDecoder(resp.Body).Decode(&posted)
	drain(resp)
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return nil, true, nil
	case resp.StatusCode != http.StatusAccepted:
		return nil, false, fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	case err != nil:
		return nil, false, fmt.Errorf("POST %s: %w", path, err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+posted.ID+"/stream", nil)
	if err != nil {
		return nil, false, err
	}
	resp, err = follow.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer drain(resp)
	dec := json.NewDecoder(resp.Body)
	for {
		var line jobStatus
		if err := dec.Decode(&line); err != nil {
			return nil, false, fmt.Errorf("stream of %s ended before a terminal state: %w", posted.ID, err)
		}
		switch line.State {
		case serve.StateDone, serve.StateFailed, serve.StateCancelled:
			return &line, false, nil
		}
	}
}

// drain reads a response to its end before closing it, so the client
// reuses the connection instead of opening a new one.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// healthy waits for the replica to answer its liveness probe.
func healthy(url string) error {
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// fetchTrace reads a job's span tree from GET /v1/trace/{id}.
func fetchTrace(client *http.Client, url, id string) (*serve.TraceDoc, error) {
	resp, err := client.Get(url + "/v1/trace/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/trace/%s: status %d", id, resp.StatusCode)
	}
	var doc serve.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET /v1/trace/%s: %w", id, err)
	}
	if !doc.Complete {
		return nil, fmt.Errorf("trace of finished job %s is incomplete", id)
	}
	return &doc, nil
}

func flatten(nodes []*obs.SpanNode) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, n := range nodes {
		out = append(out, n.SpanRecord)
		out = append(out, flatten(n.Children)...)
	}
	return out
}

// verifyJobs checks every finished job's result against an in-process
// Session.Tune of the same request — the model rebuilt from the
// measurement store, not read from the replica's artifacts — and returns
// the digest of the distinct results.
func verifyJobs(ctx context.Context, rec *recorder, store *measure.Store, arrivals []arrival, out *outcome) (string, error) {
	sess := core.NewSession(core.SessionOptions{
		Provider: measure.NewCache(measure.NewPersistent(leaf{inner: measure.Simulator{}, rec: rec}, store), 0),
	})
	refs := map[string][]byte{}
	reference := func(app, space string, w serve.Weighting) (string, []byte, error) {
		key := fmt.Sprintf("%s/%s/%v", app, space, w)
		if ref, ok := refs[key]; ok {
			return key, ref, nil
		}
		sp, err := config.SpaceByName(space)
		if err != nil {
			return "", nil, err
		}
		rep, err := sess.Tune(ctx, core.Request{App: app, Scale: benchScale, Space: sp, Weights: core.Weights{W1: w.W1, W2: w.W2, W3: w.W3}})
		if err != nil {
			return "", nil, fmt.Errorf("reference tune %s: %w", key, err)
		}
		if rep.Scale != benchScale.String() {
			rec.failf("%s: report scale %q, want %q", key, rep.Scale, benchScale)
		}
		if rep.Validation == nil {
			rec.failf("%s: report has no validation", key)
		} else {
			out.modelErr = append(out.modelErr, math.Abs(rep.Recommendation.Predicted.RuntimePct-rep.Validation.RuntimePct))
		}
		ref, err := json.Marshal(rep)
		if err != nil {
			return "", nil, err
		}
		refs[key] = ref
		return key, ref, nil
	}
	for i := range arrivals {
		a := &arrivals[i]
		if a.status == nil || a.status.State != serve.StateDone {
			continue
		}
		results := a.status.Results
		if !a.batch() {
			results = []json.RawMessage{a.status.Result}
		}
		if len(results) != len(a.weights) {
			rec.failf("job %s: %d results for %d weightings", a.status.ID, len(results), len(a.weights))
			continue
		}
		for j, w := range a.weights {
			key, ref, err := reference(a.app, a.space, w)
			if err != nil {
				return "", err
			}
			if !bytes.Equal(results[j], ref) {
				rec.failf("job %s (%s): result differs from the in-process tune", a.status.ID, key)
			}
		}
	}
	if len(refs) == 0 {
		return "", errors.New("no job finished")
	}
	h := sha256.New()
	for _, k := range sortedKeys(refs) {
		fmt.Fprintf(h, "%s\x00%d\x00", k, len(refs[k]))
		h.Write(refs[k])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
