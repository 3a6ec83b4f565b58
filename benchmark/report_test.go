package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSegmentsCutTimedAcksIntoSlices(t *testing.T) {
	// 100 acks, 1 ms apart, each taking 2 ms except the slow third
	// slice of five (20 ms each): twenty slices of five.
	t0 := time.Unix(0, 0)
	var acks []ack
	at := t0
	for i := 0; i < 100; i++ {
		took := 2 * time.Millisecond
		if i >= 10 && i < 15 {
			took = 20 * time.Millisecond
		}
		acks = append(acks, ack{Seq: uint64(i + 1), Start: at, End: at.Add(took)})
		at = at.Add(took)
	}
	p50, rate := segments(acks, 4096)
	if len(p50) != 20 || len(rate) != 20 {
		t.Fatalf("%d latency slices, %d rate slices, want 20", len(p50), len(rate))
	}
	if p50[0] != 2 || p50[2] != 20 || !near(rate[0], 500) || !near(rate[2], 50) || !near(rate[3], 500) {
		t.Fatalf("slices: p50 %v rate %v", p50[:4], rate[:4])
	}
	if median(p50) != 2 || !near(median(rate), 500) {
		t.Fatalf("one slow slice moved the medians: %v ms, %v /s", median(p50), median(rate))
	}
	// A workload that checkpoints every 16 batches gets whole periods.
	if p50, _ := segments(acks[:96], 16); len(p50) != 6 {
		t.Fatalf("96 acks at a 16-batch checkpoint period made %d slices, want 6", len(p50))
	}
}

func TestBlockKinds(t *testing.T) {
	kinds, size := blockKinds(1)
	if len(kinds) != 2 || size != traceBlock || !kinds[0].traced || kinds[1].traced || kinds[1].window != 1 {
		t.Fatalf("window 1: %+v, block %d", kinds, size)
	}
	kinds, size = blockKinds(32)
	if len(kinds) != 3 || size != 256 || kinds[0].window != 1 || kinds[2].window != 32 || kinds[2].traced {
		t.Fatalf("window 32: %+v, block %d", kinds, size)
	}
}

func resultWith(workload string, metric string, values ...float64) *resultFile {
	rf := &resultFile{}
	for _, v := range values {
		rf.Sets = append(rf.Sets, []workloadResult{{
			Workload: workload,
			EndToEnd: &measurement{Workload: workload, Correct: true, Metrics: map[string]float64{metric: v, "failed_share": 0}},
		}})
	}
	return rf
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		name      string
		metric    string
		base, new []float64
		want      string
	}{
		{"same", "heap_live_mb", []float64{100, 101, 99, 100, 100}, []float64{101, 100, 100, 99, 102}, "ok"},
		{"worse past the bound", "heap_live_mb", []float64{100, 101, 99, 100, 100}, []float64{115, 114, 116, 115, 115}, "regressed"},
		{"worse within the bound", "heap_live_mb", []float64{100, 101, 99, 100, 100}, []float64{108, 107, 109, 108, 108}, "ok"},
		{"too noisy to tell", "heap_live_mb", []float64{100, 140, 70, 120, 90}, []float64{100, 141, 70, 121, 90}, "unresolved"},
		{"noisy but every run better", "heap_live_mb", []float64{100, 140, 70, 120, 90}, []float64{50, 60, 40, 65, 55}, "ok"},
		{"higher is better, fell", "batches_per_s", []float64{800, 810, 790, 800, 805}, []float64{500, 510, 490, 500, 505}, "regressed"},
		{"higher is better, rose", "batches_per_s", []float64{800, 810, 790, 800, 805}, []float64{1500, 1510, 1490, 1500, 1505}, "ok"},
	} {
		vs := compare(resultWith("w", c.metric, c.base...), resultWith("w", c.metric, c.new...))
		if len(vs) != 2 || vs[0].Metric != c.metric || vs[1].Metric != "failed_share" {
			t.Fatalf("%s: rows %+v", c.name, vs)
		}
		if vs[0].Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, vs[0].Verdict, c.want, vs[0])
		}
		if wantGated := c.metric == "heap_live_mb"; vs[0].Gated != wantGated {
			t.Errorf("%s: gated = %v", c.name, vs[0].Gated)
		}
	}
	base, next := resultWith("w", "heap_live_mb", 100), resultWith("w", "heap_live_mb", 100)
	next.Sets[0][0].EndToEnd.Metrics["failed_share"] = 0.01
	if vs := compare(base, next); vs[1].Verdict != "regressed" {
		t.Errorf("a risen failed_share was judged %q", vs[1].Verdict)
	}
}

func TestResultFileRoundTripsAndRenders(t *testing.T) {
	rf := resultWith("churn", "heap_live_mb", 300, 310, 305)
	rf.Host = hostShape{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24", FSType: "ext4", FsyncUsP50: 250}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := rf.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	rf.render(&a)
	back.render(&b)
	if a.String() != b.String() {
		t.Fatal("a saved result renders differently from the run that saved it")
	}
	for _, want := range []string{"## churn", "| heap_live_mb | MB | 305 | 300 | 310 | 10% |", "fs=ext4"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("rendering lacks %q:\n%s", want, a.String())
		}
	}
}

func TestDriverLineHasExactlyTheContractKeys(t *testing.T) {
	m := &measurement{Correct: true, Attempted: 10, Failed: 0, Metrics: map[string]float64{"setup_s": 5.5, "extra": 1}}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(driverLine(m, gatedEndToEnd())), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result line keys: %v", got)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(gatedEndToEnd()) || metrics["setup_s"].Value != 5.5 || metrics["setup_s"].Unit != "s" {
		t.Fatalf("metrics: %v", metrics)
	}
	if _, leaked := metrics["extra"]; leaked {
		t.Fatal("an undeclared metric reached the result line")
	}
}
