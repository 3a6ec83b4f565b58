package serve

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

func encodeAll(batches [][]graph.Update) [][]byte {
	var ps [][]byte
	for _, b := range batches {
		ps = append(ps, wal.EncodeBatch(b))
	}
	return ps
}

// TestPipelineGroupCheckpointsAtGroupBoundary: a commit group of 5 under
// CheckpointEvery 3 crosses the threshold at its third batch, but Seq()
// — the label a generation is cut under — already names the fifth. The
// checkpoint must wait for the group's last apply: exactly one
// generation, labelled with the applied sequence, and a restart that
// loads it and replays the rest lands on the reference states. Cut
// mid-group under that label, recovery would skip records 4 and 5.
func TestPipelineGroupCheckpointsAtGroupBoundary(t *testing.T) {
	w := testWorkload(t, 7)
	want := referenceStates(w)
	cfg := pipelineConfig(t, w)
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Append(encodeAll(w.Batches[:5]), time.Time{})
	if err != nil || first != 1 || p.Seq() != 5 {
		t.Fatalf("group append: first %d, seq %d, err %v; want 1, 5", first, p.Seq(), err)
	}
	if err := p.Apply(w.Batches[:5]); err != nil {
		t.Fatal(err)
	}
	col := p.Collector()
	if got := col.Get(stats.CtrServeCheckpoints); got != 1 {
		t.Fatalf("%d checkpoint generations after a group of 5 at every-3, want 1", got)
	}
	if ing, rounds := col.Get(stats.CtrServeIngested), col.Get(stats.CtrServeRounds); ing != 5 || rounds != 1 {
		t.Fatalf("ingested %d in %d commit rounds, want 5 in 1", ing, rounds)
	}
	if seq, err := decodeSeqMeta(p.ck.Metas()[0]); err != nil || seq != 5 {
		t.Fatalf("the generation says in-band it covers seq %d (err %v), want the applied sequence 5", seq, err)
	}
	for _, b := range w.Batches[5:] {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no final checkpoint, just whatever is on disk.
	p.log.Close()
	p.sess.Close()

	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Seq() != 7 || !statesEqual(p2.Session().States(), want) {
		t.Fatalf("recovered at seq %d; states identical to the reference: %v", p2.Seq(), statesEqual(p2.Session().States(), want))
	}
	if got := p2.Collector().Get(stats.CtrWALReplayed); got != 2 {
		t.Fatalf("recovery replayed %d records past the checkpoint, want 2", got)
	}
}

// TestPipelineGroupSeqPublishedAfterBarrier: Seq() is what a probe or a
// Welcome advertises, read concurrently with ingest. While a group's one
// fsync is in flight none of its records may be visible there; once it
// returns, all of them are.
func TestPipelineGroupSeqPublishedAfterBarrier(t *testing.T) {
	w := testWorkload(t, 5)
	cfg := pipelineConfig(t, w)
	// While armed, every segment-file Sync announces itself and waits to
	// be released.
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	cfg.WAL.FS = fault.NewFS(func(op fault.Op, path string) error {
		switch {
		case op == fault.OpFreeSpace:
			return errors.ErrUnsupported // no probe
		case op == fault.OpSync && strings.HasSuffix(path, ".wal") && armed.Load():
			entered <- struct{}{}
			<-release
		}
		return nil
	})
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Ingest(w.Batches[0]); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	appended := make(chan error, 1)
	go func() {
		_, err := p.Append(encodeAll(w.Batches[1:]), time.Time{})
		appended <- err
	}()
	<-entered // all four records are in the file; their barrier is held
	if got := p.Seq(); got != 1 {
		t.Fatalf("Seq() read %d while the group's barrier was in flight, want the pre-group 1", got)
	}
	armed.Store(false)
	release <- struct{}{}
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if got := p.Seq(); got != 5 {
		t.Fatalf("Seq() = %d after the group's barrier, want 5", got)
	}
	if err := p.Apply(w.Batches[1:]); err != nil {
		t.Fatal(err)
	}
}
