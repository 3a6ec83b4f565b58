package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestSameSeedSameBatchListDifferentSeedDifferent(t *testing.T) {
	spec, ok := workloadByName("tiny-quorum")
	if !ok {
		t.Fatal("tiny-quorum is not defined")
	}
	spec = spec.scaled(1)
	a, err := generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || !reflect.DeepEqual(a.Batches, b.Batches) || !reflect.DeepEqual(a.Warmup, b.Warmup) {
		t.Fatalf("seed 7 generated two different inputs (digests %s, %s)", a.Digest, b.Digest)
	}
	c, err := generate(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatalf("seeds 7 and 8 share the digest %s", a.Digest)
	}
	for i, b := range a.Batches {
		if len(b) != spec.BatchSize {
			t.Fatalf("batch %d has %d updates, want %d", i+1, len(b), spec.BatchSize)
		}
	}
}

func TestScalingKeepsEveryWorkloadRunnable(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []int{1, runSeconds, fullSeconds} {
			s := w.scaled(seconds)
			if s.Untimed < 1 || s.Batches < 2*s.Untimed || s.Ladder > s.Batches {
				t.Errorf("%s at %d s: %d batches, %d untimed, %d ladder", w.Name, seconds, s.Batches, s.Untimed, s.Ladder)
			}
			adds := int(float64(s.BatchSize)*s.AddFrac) * s.Batches
			if pending := int(float64(s.Graph.Edges) * (1 - s.Warmup)); adds > pending {
				t.Errorf("%s at %d s wants %d insertions, the graph holds %d back", w.Name, seconds, adds, pending)
			}
		}
		if full := w.scaled(fullSeconds); full.Batches != w.Batches || full.Untimed != w.Untimed {
			t.Errorf("%s: scaling to fullSeconds changed the counts", w.Name)
		}
	}
	if s := workloads[4].scaled(runSeconds); s.Name != "ckpt-default" || s.Batches%s.CkptEvery != 0 {
		t.Errorf("ckpt-default at %d s has %d batches, not whole checkpoint periods", runSeconds, s.Batches)
	}
}

// BENCHMARK.json is the contract the acceptance driver reads; the
// tables in metrics.go and workload.go are what the program prints.
// They must not drift apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the program's default is %d", file.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: file has %q (%q), program has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the file, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: file has %+v, program has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in the file does not match %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, gatedEndToEnd(), true)
	check("per_layer", file.PerLayer, perLayer, false)
}
