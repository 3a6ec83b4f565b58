package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/native"
	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// Instrument B: the ladder replay. The same batch list is pushed,
// single-goroutine and offline, through each layer's public entry point
// in turn — codec, WAL, store, engine, session wrapper, pipeline,
// replication round trip — recording the median ns per batch and, from
// runtime.MemStats deltas, bytes and allocations per batch. Each rung
// runs the rungs below it, so adjacent rungs subtract to a layer's self
// time. Counts here repeat exactly from run to run; times do not.

// sessionCores is the worker count tdgraph.NewSession gives the native
// engine when SessionOptions.Cores is left at zero. The native rung
// uses it so that session_apply minus native_apply is the wrapper
// alone, not a difference in parallelism.
const sessionCores = 8

// codecSink keeps the codec rungs' results alive so the compiler cannot
// drop the calls being timed.
var codecSink int

// rung is one layer's cost per batch.
type rung struct {
	NsP50  float64
	Bytes  float64 // heap bytes allocated per batch
	Allocs float64 // heap allocations per batch
}

// measure runs op once per batch and reduces the timings. The first
// error stops the rung.
func measure(n int, op func(i int) error) (rung, error) {
	ns := make([]float64, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return rung{}, fmt.Errorf("batch %d: %w", i+1, err)
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	runtime.ReadMemStats(&after)
	return rung{
		NsP50:  median(ns),
		Bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		Allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
	}, nil
}

// runLadder replays the first Spec.Ladder batches through every layer
// and writes the ladder.* and native.* metrics into m. dir is scratch
// space on the measured disk.
func runLadder(in *inputs, dir string, m map[string]float64) error {
	batches := in.Batches[:in.Spec.Ladder]
	n := len(batches)
	updates := 0
	payloads := make([][]byte, n)
	for i, b := range batches {
		payloads[i] = wal.EncodeBatch(b)
		updates += len(b)
	}

	// replica wire codec: one Submit-sized frame out, the same frame in.
	var wire bytes.Buffer
	fw, err := measure(n, func(i int) error {
		return replica.WriteFrame(&wire, replica.Frame{Type: replica.FrameSubmit, Seq: uint64(i + 1), Payload: payloads[i]})
	})
	if err != nil {
		return fmt.Errorf("ladder frame write: %w", err)
	}
	fr, err := measure(n, func(int) error {
		_, err := replica.ReadFrame(&wire)
		return err
	})
	if err != nil {
		return fmt.Errorf("ladder frame read: %w", err)
	}
	m["ladder.frame_write_ns"], m["ladder.frame_read_ns"] = fw.NsP50, fr.NsP50
	m["ladder.frame_allocs"] = fw.Allocs + fr.Allocs

	// wal batch codec.
	enc, _ := measure(n, func(i int) error { codecSink += len(wal.EncodeBatch(batches[i])); return nil })
	dec, err := measure(n, func(i int) error {
		b, err := wal.DecodeBatch(payloads[i])
		codecSink += len(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("ladder wal decode: %w", err)
	}
	m["ladder.wal_encode_ns"], m["ladder.wal_encode_allocs"], m["ladder.wal_encode_bytes"] = enc.NsP50, enc.Allocs, enc.Bytes
	m["ladder.wal_decode_ns"], m["ladder.wal_decode_allocs"] = dec.NsP50, dec.Allocs

	// wal.Log append, without and with the per-batch fsync.
	for _, v := range []struct {
		key  string
		sync wal.SyncPolicy
	}{{"ladder.wal_append_nosync_ns", wal.SyncNone}, {"ladder.wal_append_sync_ns", wal.SyncEachBatch}} {
		wdir := filepath.Join(dir, v.key)
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return err
		}
		log, _, err := wal.Open(wal.Options{Dir: wdir, Sync: v.sync, SegmentBytes: 4 << 20})
		if err != nil {
			return err
		}
		r, err := measure(n, func(i int) error { return log.Append(uint64(i+1), batches[i]) })
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", v.key, err)
		}
		m[v.key] = r.NsP50
	}

	// serve.Queue: one Put and one Get per batch (off the cluster path
	// today; group commit would put it on).
	q := serve.NewQueue(serve.QueueConfig{})
	qr, err := measure(n, func(i int) error {
		if err := q.Put(batches[i]); err != nil {
			return err
		}
		_, err := q.Get()
		return err
	})
	if err != nil {
		return fmt.Errorf("ladder queue: %w", err)
	}
	m["ladder.queue_putget_ns"] = qr.NsP50

	// graph.Store alone, then native.Session over an identical store.
	store := graph.NewStoreFromEdges(in.Spec.Graph.Vertices, in.Warmup)
	sr, _ := measure(n, func(i int) error { store.Apply(batches[i]); return nil })
	m["ladder.store_apply_ns"], m["ladder.store_apply_allocs"] = sr.NsP50, sr.Allocs

	eng := native.NewSession(algo.NewSSSP(0), graph.NewStoreFromEdges(in.Spec.Graph.Vertices, in.Warmup),
		native.Config{Workers: sessionCores})
	base := eng.Metrics()
	nr, _ := measure(n, func(i int) error { eng.ApplyBatch(batches[i]); return nil })
	ctr := eng.Metrics()
	eng.Close()
	delta := func(name string) float64 { return float64(ctr.Get(name) - base.Get(name)) }
	visits, skips := delta(stats.CtrPropagationVisits), delta(stats.CtrNativeTDTUSkips)
	m["ladder.native_apply_ns"], m["ladder.native_apply_allocs"] = nr.NsP50, nr.Allocs
	m["ladder.native_propagate_ns"] = nr.NsP50 - sr.NsP50
	m["native.visits_per_update"] = visits / float64(updates)
	m["native.edges_per_update"] = delta(stats.CtrEdgesProcessed) / float64(updates)
	if visits+skips > 0 {
		m["native.tdtu_skip_ratio"] = skips / (visits + skips)
	}

	// tdgraph.Session: the root-package wrapper around the engine.
	sess, err := newSession(in)
	if err != nil {
		return err
	}
	defer sess.Close()
	wr, err := measure(n, func(i int) error {
		_, err := sess.ApplyBatch(batches[i])
		return err
	})
	if err != nil {
		return fmt.Errorf("ladder session: %w", err)
	}
	m["ladder.session_apply_ns"], m["ladder.session_apply_allocs"] = wr.NsP50, wr.Allocs
	m["ladder.session_wrapper_ns"] = wr.NsP50 - nr.NsP50

	// tdgraph.Checkpointer on that session: save twice (the second
	// rotates a generation, as every save after the first does), load
	// once.
	if err := ladderCheckpoint(sess, filepath.Join(dir, "ckpt"), m); err != nil {
		return fmt.Errorf("ladder checkpoint: %w", err)
	}

	// serve.Pipeline without a replicator or checkpoints: WAL append +
	// fsync + session apply, and whatever the pipeline adds.
	pcfg, err := pipelineConfig(in, filepath.Join(dir, "pipeline"), -1, nil)
	if err != nil {
		return err
	}
	pcfg.CheckpointPath = ""
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		return err
	}
	pr, err := measure(n, func(i int) error { return pipe.Ingest(batches[i]) })
	if cerr := pipe.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ladder pipeline: %w", err)
	}
	m["ladder.pipeline_ingest_solo_ns"] = pr.NsP50
	m["ladder.pipeline_self_ns"] = pr.NsP50 - wr.NsP50 - m["ladder.wal_append_sync_ns"]

	rtt, err := ladderReplicate(in, dir, batches)
	if err != nil {
		return fmt.Errorf("ladder replicate: %w", err)
	}
	m["ladder.replicate_rtt_ns"] = rtt.NsP50
	return nil
}

func ladderCheckpoint(sess *tdgraph.Session, dir string, m map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ck := &tdgraph.Checkpointer{Path: filepath.Join(dir, "ckpt.tds"), Keep: 2}
	meta := make([]byte, 8)
	save, err := measure(2, func(int) error { return ck.SaveWithMeta(sess, meta) })
	if err != nil {
		return err
	}
	st, err := os.Stat(ck.Path)
	if err != nil {
		return err
	}
	load, err := measure(1, func(int) error {
		s, _, _, err := ck.LoadWithMeta(tdgraph.NewSSSP(0), sessionOptions)
		if err == nil {
			s.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	m["ladder.ckpt_save_ms"], m["ladder.ckpt_load_ms"] = save.NsP50/1e6, load.NsP50/1e6
	m["ladder.ckpt_bytes"] = float64(st.Size())
	return nil
}

// ladderReplicate times Primary.Replicate against one Follower over
// loopback TCP: encode, frame out, the follower's decode + WAL append +
// fsync + apply, ack frame in — one follower's worth of the quorum
// round trip, with no leader-side WAL in the way.
func ladderReplicate(in *inputs, dir string, batches [][]graph.Update) (rung, error) {
	pdir := filepath.Join(dir, "primary-wal")
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		return rung{}, err
	}
	walOpt := wal.Options{Dir: pdir}
	if _, err := replica.ClaimTerm(walOpt, 1); err != nil {
		return rung{}, err
	}
	fcfg, err := pipelineConfig(in, filepath.Join(dir, "follower"), -1, nil)
	if err != nil {
		return rung{}, err
	}
	fl, err := replica.NewFollower(replica.FollowerConfig{Pipeline: fcfg})
	if err != nil {
		return rung{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fl.Close()
		return rung{}, err
	}
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		served <- fl.Serve(conn)
	}()
	prim := replica.NewPrimary(replica.PrimaryConfig{Term: 1, ClusterSize: 2, WAL: walOpt})
	finish := func(r rung, err error) (rung, error) {
		prim.Close()
		ln.Close()
		serr := <-served
		cerr := fl.Close()
		return r, errors.Join(err, serr, cerr)
	}
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		return finish(rung{}, err)
	}
	if err := prim.AddFollower(conn); err != nil {
		conn.Close()
		return finish(rung{}, err)
	}
	return finish(measure(len(batches), func(i int) error { return prim.Replicate(uint64(i+1), batches[i]) }))
}
