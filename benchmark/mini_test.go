package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The miniatures run the real thing — three replica.Nodes on loopback
// TCP, real WAL and checkpoint directories, the client driver, the
// reference gate — on a 4K-vertex graph and 200 batches. Almost all of
// their time is the nodes' 4 s boot lease plus the election splay, so
// TestMiniatures runs the three side by side (on its own goroutines:
// t.Parallel would cap them at GOMAXPROCS, two here) to keep the
// package's tests under ten seconds.

var gMini = graphSpec{"g-mini", 4096, 32_768}

func miniature(t *testing.T, name string, ckptEvery int) *inputs {
	in, err := generate(workloadSpec{
		Name: name, Graph: gMini, Warmup: 0.5, Batches: 200, BatchSize: 4, AddFrac: 0.75,
		CkptEvery: ckptEvery, Window: 1, Untimed: 20, Ladder: 50,
	}, 1)
	if err != nil {
		panic(err) // a fixed 4K-vertex spec always generates
	}
	return in
}

// passed reports (with t.Errorf, so it is safe off the test goroutine)
// whether a miniature ran clean through the correctness gate.
func passed(t *testing.T, name string, m *measurement, err error, batches int) bool {
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return false
	}
	if !m.Correct || m.Failed != 0 || m.Attempted != batches {
		t.Errorf("%s: gate: correct=%v (%s) attempted=%d failed=%d, want %d clean submits",
			name, m.Correct, m.Mismatch, m.Attempted, m.Failed, batches)
		return false
	}
	return true
}

func TestMiniatures(t *testing.T) {
	var wg sync.WaitGroup
	for _, run := range []func(*testing.T){miniTinyQuorum, miniCkptDefault, miniTraced} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(t)
		}()
	}
	wg.Wait()
}

func miniTinyQuorum(t *testing.T) {
	in := miniature(t, "mini-quorum", 4096)
	m, err := runUntraced(in, t.TempDir(), 1)
	if !passed(t, in.Spec.Name, m, err, 200) {
		return
	}
	for _, d := range gatedEndToEnd() {
		if v := m.Metrics[d.Name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive number", d.Name, v)
		}
	}
	if m.Timed != 180 || m.Metrics["state_mismatch"] != 0 || m.Metrics["failed_share"] != 0 {
		t.Errorf("timed %d batches, metrics %v", m.Timed, m.Metrics)
	}
}

func miniCkptDefault(t *testing.T) {
	in := miniature(t, "mini-ckpt", 16)
	m, err := runUntraced(in, t.TempDir(), 1)
	if !passed(t, in.Spec.Name, m, err, 200) {
		return
	}
	// 180 timed batches, every 16th sequence a checkpoint: 32..192.
	if got := m.Metrics["ckpt_stall_samples"]; got != 11 {
		t.Errorf("%v checkpoint stalls sampled, want 11", got)
	}
	if m.Metrics["ckpt_stall_ms_p50"] <= m.Metrics["ack_ms_p50"] {
		t.Errorf("a checkpoint batch (%v ms) should ack slower than a plain one (%v ms)",
			m.Metrics["ckpt_stall_ms_p50"], m.Metrics["ack_ms_p50"])
	}
}

func miniTraced(t *testing.T) {
	in := miniature(t, "mini-traced", 4096)
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	m, err := runTraced(in, dir, spans)
	if !passed(t, in.Spec.Name, m, err, 100) { // the traced pass covers the first half of the list
		return
	}
	sum := 0.0
	for _, k := range []string{"share.client_pct", "share.leader_wal_write_pct", "share.leader_fsync_pct", "share.repl_pct", "share.leader_other_pct"} {
		sum += m.Metrics[k]
	}
	if sum < 95 || sum > 105 {
		t.Errorf("shares of the median ack sum to %.1f, want 100 ± 5 (%v)", sum, m.Metrics)
	}
	for _, d := range perLayer {
		if _, ok := m.Metrics[d.Name]; !ok {
			t.Errorf("traced pass did not report %s", d.Name)
		}
	}
	if m.Metrics["leader.fsyncs_per_batch"] != 1 || m.Metrics["follower.fsyncs_per_batch"] != 1 || m.Metrics["repl.frames_per_batch"] != 4 {
		t.Errorf("per-batch counts: %v leader fsyncs, %v follower fsyncs, %v frames",
			m.Metrics["leader.fsyncs_per_batch"], m.Metrics["follower.fsyncs_per_batch"], m.Metrics["repl.frames_per_batch"])
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Error(err)
		return
	}
	var sf spanFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Error(err)
		return
	}
	traced := map[uint64]bool{}
	for _, s := range sf.Spans {
		if s.Name == spanAck {
			traced[s.Trace] = true
		}
	}
	// 80 batches past warm-up in blocks of 16, every other block traced.
	if len(traced) != 48 || sf.Leader == "" {
		t.Errorf("span file holds %d traced batches led by %q, want 48", len(traced), sf.Leader)
	}
}
