package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// readyTimeout bounds the wait for a leader with every follower
// attached: one lease (4 s) plus the longest election splay (2 s) and
// the members' bootstraps, with a wide margin for a deferred candidacy.
const readyTimeout = 60 * time.Second

// measurement is what one pass over one workload produced: the
// correctness verdict, the submit accounting, and metric values by
// name (end-to-end names on an untraced pass, per-layer names on a
// traced one).
type measurement struct {
	Workload  string             `json:"workload"`
	Digest    string             `json:"digest"`
	Correct   bool               `json:"correct"`
	Mismatch  string             `json:"mismatch,omitempty"` // why the correctness gate failed
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Timed     int                `json:"timed_batches"`
	Noisy     bool               `json:"noisy"`
	Tail      string             `json:"tail,omitempty"` // highest supported percentile, e.g. "p99.9=3.2ms"
	Metrics   map[string]float64 `json:"metrics"`
}

// bracket records the two host probes around a pass: their means as
// metrics, and the noisy mark when they disagree.
func (m *measurement) bracket(before, after hostProbe) {
	m.Noisy = before.disagrees(after)
	m.Metrics["host.spin_ms"] = (before.SpinMs + after.SpinMs) / 2
	m.Metrics["host.fsync_us_p50"] = (before.FsyncUsP50 + after.FsyncUsP50) / 2
	m.Metrics["host.noisy"] = 0
	if m.Noisy {
		m.Metrics["host.noisy"] = 1
	}
}

// liveCluster is a cluster that has acked its first batch.
type liveCluster struct {
	c      *cluster
	cl     *client
	leader string
	setupS float64 // first NewNode call -> first warm-up batch acked
}

// goLive finishes a started cluster's set-up: wait for the election and
// the follower attachments, open the client session, and push the first
// warm-up batch through a quorum round. What it times, from the first
// NewNode call on, is the bootstrap fixpoint, the boot lease running
// out, the election splay, the attachments and that first round.
func goLive(c *cluster, in *inputs) (*liveCluster, error) {
	leader, err := c.waitReady(readyTimeout)
	if err != nil {
		return nil, err
	}
	cl, err := connect(c.dial, c.members[0].name)
	if err != nil {
		return nil, err
	}
	if _, err := cl.submit(in.Batches[:1], 1); err != nil {
		cl.close()
		return nil, fmt.Errorf("first batch: %w", err)
	}
	return &liveCluster{c: c, cl: cl, leader: leader, setupS: time.Since(c.started).Seconds()}, nil
}

// close ends the client session and the cluster.
func (lc *liveCluster) close() error {
	lc.cl.close()
	return lc.c.close()
}

// tearDown closes the cluster, then runs the correctness gate against
// the reference states for the batches the cluster was sent.
func (lc *liveCluster) tearDown(in *inputs, submitted int) error {
	if err := lc.close(); err != nil {
		return err
	}
	want, err := reference(in, submitted)
	if err != nil {
		return err
	}
	return lc.c.verify(want, submitted)
}

// processCPU is the user + system CPU time this process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMB is the live heap after a forced collection, every member
// (and the benchmark's own inputs) included: all run in this process.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// segments cuts the timed acks into about twenty consecutive slices —
// whole checkpoint periods where the workload checkpoints often — and
// returns each slice's median ack in ms and its rate in batches per
// second, measured from the previous slice's last ack to its own. The
// headline latency and throughput are medians over these slices: this
// host's disk and memory both have slow episodes a second or two long,
// and a median over slices ignores an episode where a mean over the run
// (or a median over every batch, when the episode is a third of the run)
// reports mostly the episode.
func segments(acks []ack, ckptEvery int) (p50ms, perSec []float64) {
	size := max(len(acks)/20, 1)
	if 4*ckptEvery <= len(acks) {
		size = (size + ckptEvery - 1) / ckptEvery * ckptEvery
	}
	from := acks[0].Start
	for at := 0; at+size <= len(acks); at += size {
		slice := acks[at : at+size]
		var ms []float64
		for _, a := range slice {
			ms = append(ms, float64(a.End.Sub(a.Start))/1e6)
		}
		to := slice[size-1].End
		p50ms = append(p50ms, median(ms))
		perSec = append(perSec, float64(size)/to.Sub(from).Seconds())
		from = to
	}
	return p50ms, perSec
}

// runUntraced is the pass every end-to-end number comes from: a plain
// 3-member cluster with no shim on any seam. setups clusters are
// started back to back, so their boot leases run out side by side and
// setup_s is a median over several set-ups at the price of one wait;
// all but the first are torn down before the first is measured.
func runUntraced(in *inputs, workDir string, setups int) (*measurement, error) {
	spec := in.Spec
	m := &measurement{Workload: spec.Name, Digest: in.Digest, Metrics: map[string]float64{}}
	before, err := probeHost(workDir)
	if err != nil {
		return nil, err
	}

	var started []*cluster
	abandon := func(err error) (*measurement, error) {
		for _, c := range started {
			c.close()
		}
		return nil, err
	}
	for i := 0; i < setups; i++ {
		c, err := startCluster(in, 3, fmt.Sprintf("%s/cluster%d", workDir, i), nil)
		if err != nil {
			return abandon(err)
		}
		started = append(started, c)
	}
	var live []*liveCluster
	var setupS []float64
	for _, c := range started {
		lc, err := goLive(c, in)
		if err != nil {
			return abandon(err)
		}
		live = append(live, lc)
		setupS = append(setupS, lc.setupS)
	}
	// The spares exist to be timed; only the measured cluster is held to
	// the reference.
	for i, spare := range live[1:] {
		if err := spare.close(); err != nil {
			return abandon(fmt.Errorf("set-up %d: %w", i+2, err))
		}
	}
	lc := live[0]
	started = started[:1]
	// Start the measured part from a quiet machine: the spare clusters'
	// garbage collected, their checkpoint and WAL pages on disk.
	runtime.GC()
	syscall.Sync()

	warm, err := lc.cl.submit(in.Batches[1:spec.Untimed], spec.Window)
	if err != nil {
		lc.cl.close()
		return abandon(fmt.Errorf("warm-up: %w", err))
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0 := processCPU()
	timed, err := lc.cl.submit(in.Batches[spec.Untimed:], spec.Window)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&mem1)
	m.Attempted = 1 + warm.Attempted + timed.Attempted
	m.Failed = warm.Failed + timed.Failed
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: run ended early: %v\n", spec.Name, err)
	}
	heap := heapLiveMB()
	submitted := 1 + len(warm.Acks) + len(timed.Acks)
	if verr := lc.tearDown(in, submitted); verr != nil {
		m.Mismatch = verr.Error()
	} else if submitted != len(in.Batches) {
		m.Mismatch = fmt.Sprintf("%d of %d batches were acknowledged", submitted, len(in.Batches))
	}
	m.Correct = m.Mismatch == ""

	after, err := probeHost(workDir)
	if err != nil {
		return nil, err
	}
	m.bracket(before, after)

	var lat, stalls []float64
	for _, a := range timed.Acks {
		ms := float64(a.End.Sub(a.Start)) / 1e6
		lat = append(lat, ms)
		if a.Seq%uint64(spec.CkptEvery) == 0 {
			stalls = append(stalls, ms)
		}
	}
	m.Timed = len(lat)
	if len(lat) > 0 {
		tail := tailPercentile(len(lat))
		m.Tail = fmt.Sprintf("p%g=%.4fms over %d samples", tail, percentile(lat, tail), len(lat))
		p50ms, perSec := segments(timed.Acks, spec.CkptEvery)
		m.Metrics["ack_ms_p50"] = median(p50ms)
		m.Metrics["batches_per_s"] = median(perSec)
		m.Metrics["updates_per_s"] = median(perSec) * float64(spec.BatchSize)
		m.Metrics["cpu_ms_per_batch"] = cpu.Seconds() * 1e3 / float64(len(lat))
		m.Metrics["alloc_kb_per_batch"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / float64(len(lat))
		m.Metrics["allocs_per_batch"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(len(lat))
		m.Metrics["ack_ms_p50_all"] = median(lat)
		m.Metrics["ack_ms_p99"] = percentile(lat, 99)
		m.Metrics["batches_per_s_overall"] = float64(len(lat)) / timed.Acks[len(lat)-1].End.Sub(timed.Acks[0].Start).Seconds()
	}
	// The WAL's fsync count reaches the collectors when a pipeline closes,
	// so it covers the whole run: set-up batch, warm-up and final barrier
	// included.
	m.Metrics["wal_fsyncs_per_batch"] = float64(lc.c.counters()[stats.CtrWALFsyncs]) / float64(submitted)
	m.Metrics["ckpt_stall_ms_p50"] = median(stalls)
	m.Metrics["ckpt_stall_samples"] = float64(len(stalls))
	m.Metrics["setup_s"] = median(setupS)
	m.Metrics["heap_live_mb"] = heap
	m.Metrics["failed_share"] = float64(m.Failed) / float64(m.Attempted)
	m.Metrics["state_mismatch"] = 0
	if !m.Correct {
		m.Metrics["state_mismatch"] = 1
	}
	return m, nil
}

// traceBlock is how many consecutive batches share one tracer setting
// in a traced pass. The pass alternates traced and untraced blocks on
// the same cluster, so both see the same graph, the same disk and the
// same minute; 16 is ckpt-default's checkpoint period, which puts
// exactly one inline checkpoint in every block of either kind.
const traceBlock = 16

// blockKind is how one block of a traced pass is driven.
type blockKind struct {
	traced bool
	window int
}

// blockKinds is the cycle of block kinds for a workload: traced at
// window 1 (where a seam span can be attributed to its batch), untraced
// at window 1 (the tracing-overhead reference), and, for a workload
// whose own window is wider, untraced at that window — the last kind is
// where the untraced.* timings come from. A wider window gets longer
// blocks, eight windows each, so the pipeline is full for most of one.
func blockKinds(window int) (kinds []blockKind, size int) {
	kinds = []blockKind{{traced: true, window: 1}, {window: 1}}
	if window > 1 {
		kinds = append(kinds, blockKind{window: window})
	}
	return kinds, max(traceBlock, 8*window)
}

// runTraced is the pass every per-layer number comes from: the first
// half of the workload's batch list, window 1 whatever the workload's
// own window, through a cluster whose WAL filesystems and dialed
// connections are timing shims; then the same prefix through a
// 1-member node (the single-node baseline), then the offline ladder.
// The span tree goes to spansPath.
func runTraced(in *inputs, workDir, spansPath string) (*measurement, error) {
	spec := in.Spec
	m := &measurement{Workload: spec.Name, Digest: in.Digest, Metrics: map[string]float64{}}
	before, err := probeHost(workDir)
	if err != nil {
		return nil, err
	}
	// Half the list, but at least two blocks of each kind past warm-up.
	kinds, block := blockKinds(spec.Window)
	prefix := in.Batches[:min(len(in.Batches), max(len(in.Batches)/2, spec.Untimed+2*len(kinds)*block))]

	// Both clusters wait out their leases side by side; the solo node
	// then idles (no peers, so not even heartbeats) during the traced
	// pass.
	tr := newTracer()
	solo, err := startCluster(in, 1, workDir+"/solo", nil)
	if err != nil {
		return nil, err
	}
	c, err := startCluster(in, 3, workDir+"/cluster", tr)
	if err != nil {
		solo.close()
		return nil, err
	}
	lc, err := goLive(c, in)
	if err != nil {
		c.close()
		solo.close()
		return nil, err
	}
	if _, err := lc.cl.submit(prefix[1:spec.Untimed], 1); err != nil {
		lc.close()
		solo.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m.Attempted = spec.Untimed

	// Cycle through the block kinds; the first block after warm-up is
	// traced.
	var onLat, plainLat, ownLat, ownStalls, ownRates []float64
	submitted := spec.Untimed
	for at, n := spec.Untimed, 0; at < len(prefix); at, n = at+block, n+1 {
		batches := prefix[at:min(at+block, len(prefix))]
		kind := kinds[n%len(kinds)]
		tr.on.Store(kind.traced)
		res, err := lc.cl.submit(batches, kind.window)
		tr.on.Store(false)
		m.Attempted += res.Attempted
		m.Failed += res.Failed
		submitted += len(res.Acks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: traced pass ended early: %v\n", spec.Name, err)
			break
		}
		own := !kind.traced && kind.window == spec.Window
		if own && len(batches) == block {
			took := res.Acks[block-1].End.Sub(res.Acks[0].Start).Seconds()
			ownRates = append(ownRates, float64(block)/took)
		}
		for _, a := range res.Acks {
			ms := float64(a.End.Sub(a.Start)) / 1e6
			switch {
			case kind.traced:
				tr.recordAck(a)
				onLat = append(onLat, ms)
			case kind.window == 1:
				plainLat = append(plainLat, ms)
			}
			if own {
				ownLat = append(ownLat, ms)
				if a.Seq%uint64(spec.CkptEvery) == 0 {
					ownStalls = append(ownStalls, ms)
				}
			}
		}
	}
	if verr := lc.tearDown(in, submitted); verr != nil {
		m.Mismatch = verr.Error()
	} else if submitted != len(prefix) {
		m.Mismatch = fmt.Sprintf("%d of %d batches were acknowledged", submitted, len(prefix))
	}
	m.Correct = m.Mismatch == ""
	m.Timed = len(onLat)

	spans := tr.link(lc.leader)
	frames, replFrames, replBytes, heartbeats := tr.frameTotals()
	if err := writeSpanFile(spansPath, spanFile{Workload: spec.Name, Seed: in.Seed, Leader: lc.leader, Frames: frames, Spans: spans}); err != nil {
		solo.close()
		return nil, err
	}
	analyze(spans).layerMetrics(m.Metrics)
	if n := float64(len(onLat)); n > 0 {
		m.Metrics["repl.frames_per_batch"] = float64(replFrames) / n
		m.Metrics["repl.bytes_per_batch"] = float64(replBytes) / n
	}
	m.Metrics["repl.heartbeats"] = float64(heartbeats)
	// At window 1 batches per second is one over the ack latency, so the
	// tracing overhead is read off the two kinds of block's median acks:
	// a rate over whole blocks would be decided by whichever side drew
	// the slower checkpoint stall.
	if plain := median(plainLat); plain > 0 {
		m.Metrics["trace.overhead_pct"] = 100 * (median(onLat) - plain) / plain
	}
	m.Metrics["untraced.ack_ms_p50"] = median(ownLat)
	m.Metrics["untraced.ack_ms_p99"] = percentile(ownLat, 99)
	m.Metrics["untraced.batches_per_s"] = median(ownRates)
	m.Metrics["untraced.ckpt_stall_ms_p50"] = median(ownStalls)
	counters := c.counters()
	for _, name := range []string{
		stats.CtrServeCheckpoints, stats.CtrReplElections, stats.CtrReplFollowerDrops,
		stats.CtrReplShippedRecords, stats.CtrReplShippedBytes, stats.CtrWALFsyncs,
	} {
		m.Metrics["ctr."+strings.ReplaceAll(name, ".", "_")] = float64(counters[name])
	}

	// The single-node baseline: cluster ack minus this is the price of
	// quorum.
	soloAck, err := soloPass(solo, prefix[:min(len(prefix), spec.Untimed+spec.Ladder)], spec.Untimed)
	if cerr := solo.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("solo node: %w", err)
	}
	m.Metrics["ladder.solo_node_ack_us_p50"] = soloAck

	if err := runLadder(in, workDir+"/ladder", m.Metrics); err != nil {
		return nil, err
	}
	after, err := probeHost(workDir)
	if err != nil {
		return nil, err
	}
	m.bracket(before, after)
	m.Metrics["host.nproc"] = float64(runtime.NumCPU())
	m.Metrics["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	return m, nil
}

// soloPass submits the batches to a 1-member node over TCP at window 1
// and returns the median ack of those past the untimed prefix, in µs.
func soloPass(solo *cluster, batches [][]graph.Update, untimed int) (float64, error) {
	if _, err := solo.waitReady(readyTimeout); err != nil {
		return 0, err
	}
	cl, err := connect(solo.dial, solo.members[0].name)
	if err != nil {
		return 0, err
	}
	defer cl.close()
	res, err := cl.submit(batches, 1)
	if err != nil {
		return 0, err
	}
	var us []float64
	for _, a := range res.Acks[untimed:] {
		us = append(us, float64(a.End.Sub(a.Start))/1e3)
	}
	return median(us), nil
}
