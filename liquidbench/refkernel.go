package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The gated round cost is not raw CPU time. On a shared host the speed of
// a vCPU changes from one second to the next with what the neighbours on
// its physical core and caches run, and CPU time follows: two sets of ten
// runs of the same code spread 16-36% in round CPU time. So the timed
// phase also runs a fixed reference kernel in short samples interleaved
// with the work: before every simulation, on the thread about to
// simulate, and in the open-loop generator's idle gaps. A round's cost
// is its CPU time as a multiple of the mean sample.
//
// The kernel is a fixed mix of standard-library work: regular-expression
// matching, JSON encoding and decoding, string sorting, big-integer
// arithmetic and float formatting. Like the simulator it has a large
// code footprint and allocates, and it slows down under contention about
// as much as the simulator does. Measured on a 2-vCPU host over 140
// full-space tunes, the slope of log tune CPU time on log sample time
// was 1.1 (1.5 for a small bytecode-interpreter loop), and the
// normalized cost of a tune spread 4.9% (coefficient of variation)
// where its raw CPU time spread 11.9%. The kernel is the benchmark's own
// code on the pinned Go toolchain, so a change to the program moves the
// round and not the kernel.

var (
	refRegexp = regexp.MustCompile(`([a-z]+)-(\d+)\.(x|y)`)
	refText   = func() string {
		var b strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&b, "abc-%d.x foo%d bar-%d.y ", i, i*7, i*13)
		}
		return b.String()
	}()
)

type refRecord struct {
	Name string
	Vals []int
	M    map[string]float64
}

// refKernel runs one sample, about a millisecond of work. Its result
// depends only on its constants, so every sample returns the same value.
func refKernel() uint32 {
	h := uint32(len(refRegexp.FindAllStringSubmatchIndex(refText, -1)))
	recs := make([]refRecord, 20)
	for i := range recs {
		recs[i] = refRecord{Name: strconv.Itoa(i * 31), Vals: []int{i, i * 2, i * 3}, M: map[string]float64{"a": float64(i) / 3}}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		return 0
	}
	var back []refRecord
	if err := json.Unmarshal(data, &back); err != nil {
		return 0
	}
	h = h*31 + uint32(len(data)+len(back))
	xs := make([]string, 500)
	for i := range xs {
		xs[i] = strconv.FormatInt(int64(i*7919%1000), 36)
	}
	sort.Strings(xs)
	h = h*31 + uint32(len(xs[0])+len(xs[499]))
	a := new(big.Int).Exp(big.NewInt(3), big.NewInt(2000), nil)
	b := new(big.Int).Exp(big.NewInt(7), big.NewInt(900), nil)
	h = h*31 + uint32(new(big.Int).Mod(a, b).BitLen())
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		buf.WriteString(strconv.FormatFloat(float64(i)*1.37, 'g', -1, 64))
	}
	return h*31 + uint32(buf.Len())
}

// refTimer takes kernel samples from any goroutine, totals their thread
// CPU time and checks that each returns what the first did.
type refTimer struct {
	rec *recorder

	mu    sync.Mutex
	want  uint32
	total refTotals
}

// refTotals are a timer's running totals: samples taken and their CPU time.
type refTotals struct {
	n   int
	cpu time.Duration
}

// since returns the samples taken between from and t.
func (t refTotals) since(from refTotals) refTotals {
	return refTotals{n: t.n - from.n, cpu: t.cpu - from.cpu}
}

// mean returns the mean CPU time of a sample.
func (t refTotals) mean() time.Duration {
	if t.n == 0 {
		return 0
	}
	return t.cpu / time.Duration(t.n)
}

func newRefTimer(rec *recorder) *refTimer { return &refTimer{rec: rec} }

// sample runs the kernel once on a locked thread and returns the thread
// CPU time it took.
func (t *refTimer) sample() time.Duration {
	runtime.LockOSThread()
	t0 := threadCPUTime()
	got := refKernel()
	d := threadCPUTime() - t0
	runtime.UnlockOSThread()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total.n == 0 {
		t.want = got
	} else if got != t.want {
		t.rec.failf("reference kernel returned %#x, first sample %#x", got, t.want)
	}
	t.total.n++
	t.total.cpu += d
	return d
}

func (t *refTimer) totals() refTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
