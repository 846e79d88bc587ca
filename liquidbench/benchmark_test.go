package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the schema of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics the
// command prints in step: same names, units and directions, in order,
// and one workload entry per implemented workload.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	better := func(lower bool) string {
		if lower {
			return "lower"
		}
		return "higher"
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.lower) {
			t.Errorf("end_to_end[%d] = %s %s %s, command prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, better(d.lower))
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.lower) {
			t.Errorf("per_layer[%d] = %s %s %s, command prints %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, better(d.lower))
		}
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	sort.Strings(listed)
	implemented := sortedKeys(workloads)
	if len(listed) != len(implemented) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the command implements %v", listed, implemented)
	}
	for i := range listed {
		if listed[i] != implemented[i] {
			t.Errorf("BENCHMARK.json lists workloads %v, the command implements %v", listed, implemented)
		}
	}
}
