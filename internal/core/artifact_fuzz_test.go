package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"liquidarch/internal/binlp"
	"liquidarch/internal/config"
	"liquidarch/internal/measure"
	"liquidarch/internal/progs"
	"liquidarch/internal/workload"
)

// realArtifacts tunes arith once plainly and once per phase through a
// session spilling to a fresh model store, and returns the two artifacts
// it wrote with the keys they answer.
func realArtifacts(f *testing.F) ([][]byte, []modelKey) {
	f.Helper()
	dir := f.TempDir()
	ms, err := NewModelStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	sess := NewSession(SessionOptions{Provider: measure.NewCache(measure.Simulator{}, 0), ModelStore: ms})
	base := Request{App: "arith", Scale: workload.Tiny, Space: config.DcacheGeometrySpace()}
	phased := base
	phased.Phases = &PhaseOptions{IntervalInstructions: 10_000}
	for _, req := range []Request{base, phased} {
		if _, err := sess.Tune(context.Background(), req); err != nil {
			f.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(ms.versionDir(), "*.json"))
	if err != nil || len(files) != 2 {
		f.Fatalf("artifacts %v (%v), want a plain and a phase one", files, err)
	}
	var seeds [][]byte
	var keys []modelKey
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var in modelSetJSON
		if err := json.Unmarshal(data, &in); err != nil {
			f.Fatal(err)
		}
		scale, ok := workload.ParseScale(in.Scale)
		if !ok {
			f.Fatalf("artifact scale %q", in.Scale)
		}
		key := modelKey{prog: in.Prog, space: in.Space, scale: scale,
			sample: in.Sample, interval: in.Interval, threshold: in.Threshold}
		if _, err := decodeModelSet(data, key); err != nil {
			f.Fatalf("real artifact refused: %v", err)
		}
		seeds = append(seeds, data)
		keys = append(keys, key)
	}
	return seeds, keys
}

// FuzzDecodeModelSet hardens the model-artifact trust boundary: a file in
// a shared model directory may hold any bytes. Decoding never panics; a
// set it accepts solves and reports without panicking; and an accepted
// set re-encodes to an artifact that decodes back to the same bytes.
func FuzzDecodeModelSet(f *testing.F) {
	seeds, keys := realArtifacts(f)
	for _, s := range seeds {
		// Compact seeds keep minimization of interesting inputs quick.
		var buf bytes.Buffer
		if err := json.Compact(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	b, ok := progs.ByName("arith")
	if !ok {
		f.Fatal("arith benchmark missing")
	}
	popts := PhaseOptions{}.normalized()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range keys {
			set, err := decodeModelSet(data, key)
			if err != nil {
				continue
			}
			enc, err := encodeModelSet(key, set)
			if err != nil {
				t.Fatalf("accepted set does not encode: %v", err)
			}
			again, err := decodeModelSet(enc, key)
			if err != nil {
				t.Fatalf("re-encoded artifact refused: %v", err)
			}
			if enc2, err := encodeModelSet(key, again); err != nil || !bytes.Equal(enc, enc2) {
				t.Fatalf("artifact does not round-trip (err %v):\n%s\n%s", err, enc, enc2)
			}
			// Errors are fine (an infeasible model is a refusal); panics
			// are not.
			if set.trace != nil {
				_, _ = phaseReport(set, b, RuntimeWeights(), popts, binlp.Options{})
			} else {
				_, _ = recommend(set.models[0], RuntimeWeights(), binlp.Options{})
			}
		}
	})
}
