package main

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestValidateRole: -role accepts exactly solo | auto | client, the
// retired operator-run roles point at auto, and each role's required
// flags are enforced before any graph is built.
func TestValidateRole(t *testing.T) {
	cases := []struct {
		name                     string
		role, wal, listen, peers string
		wantErr                  string // substring; "" = accepted
	}{
		{name: "solo", role: "solo", wal: "w"},
		{name: "auto", role: "auto", wal: "w", listen: ":7401", peers: "a:1,b:2"},
		{name: "auto single member", role: "auto", wal: "w", listen: ":7401"},
		{name: "client", role: "client", peers: "a:1"},
		{name: "primary retired", role: "primary", wal: "w", peers: "a:1", wantErr: "-role auto"},
		{name: "follower retired", role: "follower", wal: "w", listen: ":1", wantErr: "-role auto"},
		{name: "unknown role", role: "leader", wal: "w", wantErr: "solo|auto|client"},
		{name: "auto without listen", role: "auto", wal: "w", peers: "a:1", wantErr: "-listen"},
		{name: "client without peers", role: "client", wantErr: "-peers"},
		{name: "client with blank peers", role: "client", peers: " , ", wantErr: "-peers"},
		{name: "solo without wal", role: "solo", wantErr: "-wal"},
		{name: "auto without wal", role: "auto", listen: ":7401", wantErr: "-wal"},
	}
	for _, c := range cases {
		err := validateRole(c.role, c.wal, c.listen, c.peers)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %q", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.wantErr)
		}
	}
}

// soloWorkload is a small deterministic stream. Its batches are a
// prefix of any longer build with the same seed, so runs of different
// lengths over one directory extend each other.
func soloWorkload(batches int) *stream.Workload {
	const nv = 64
	edges := make([]graph.Edge, 0, 640)
	for i := 0; i < 640; i++ {
		src, dst := uint32(i*7%nv), uint32((i*13+5)%nv)
		if src == dst {
			dst = (dst + 1) % nv
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: float32(1 + i%9)})
	}
	return stream.Build(edges, nv, stream.Config{
		WarmupFraction: 0.5, BatchSize: 20, AddFraction: 0.75, NumBatches: batches, Seed: 11,
	})
}

// TestSoloRunsResumeExactlyOnce drives the solo composition — a
// one-member node on a loopback port and the client in the same
// process — over one pair of directories: four batches; the same four
// again, which the client skips because the node's Welcome reports them
// durable; eight, which extend the first four; and a run cancelled
// mid-stream, as a signal would, after which the directories reopen at
// the durable prefix. Each run's state is checked against the reference
// engine over the same prefix.
func TestSoloRunsResumeExactlyOnce(t *testing.T) {
	walDir, ckptDir := t.TempDir(), t.TempDir()
	pipeline := func(w *stream.Workload) serve.PipelineConfig {
		return serve.PipelineConfig{
			Bootstrap: func() (*tdgraph.Session, error) {
				return tdgraph.NewSession(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, tdgraph.SessionOptions{Cores: 2})
			},
			Algorithm:       tdgraph.NewSSSP(0),
			SessionOptions:  tdgraph.SessionOptions{Cores: 2},
			WAL:             wal.Options{Dir: walDir, Sync: wal.SyncEachBatch, SegmentBytes: 4096},
			CheckpointPath:  filepath.Join(ckptDir, "ckpt.tds"),
			CheckpointEvery: 3,
			Collector:       stats.NewCollector(),
		}
	}
	// reopen recovers the directories and checks they hold exactly the
	// first seq batches of w, applied once.
	reopen := func(w *stream.Workload, seq int) {
		t.Helper()
		p, err := serve.NewPipeline(pipeline(w))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if p.Seq() != uint64(seq) {
			t.Fatalf("reopened at seq %d, want %d", p.Seq(), seq)
		}
		ref := enginetest.NewRunner(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, enginetest.TopologyDriven)
		for _, b := range w.Batches[:seq] {
			ref.Apply(b)
		}
		for v, s := range p.Session().States() {
			if math.Float64bits(s) != math.Float64bits(ref.S[v]) {
				t.Fatalf("seq %d: vertex %d holds %v, the reference %v", seq, v, s, ref.S[v])
			}
		}
	}
	solo := func(ctx context.Context, w *stream.Workload, pcfg serve.PipelineConfig) *stats.Collector {
		t.Helper()
		if err := runSolo(ctx, replica.NodeConfig{Dial: dialTCP, Pipeline: pcfg}, 1, 0, w.Batches, false); err != nil {
			t.Fatalf("solo run of %d batches: %v", len(w.Batches), err)
		}
		return pcfg.Collector
	}

	four, eight := soloWorkload(4), soloWorkload(8)
	if col := solo(context.Background(), four, pipeline(four)); col.Get(stats.CtrServeIngested) != 4 {
		t.Fatalf("first run ingested %d batches, want 4", col.Get(stats.CtrServeIngested))
	}
	reopen(four, 4)
	if col := solo(context.Background(), four, pipeline(four)); col.Get(stats.CtrWALAppends) != 0 || col.Get(stats.CtrServeIngested) != 0 {
		t.Fatalf("rerun appended %d and applied %d batches, want none", col.Get(stats.CtrWALAppends), col.Get(stats.CtrServeIngested))
	}
	reopen(four, 4)
	if col := solo(context.Background(), eight, pipeline(eight)); col.Get(stats.CtrServeIngested) != 4 {
		t.Fatalf("eight-batch run ingested %d batches, want the 4 past the durable prefix", col.Get(stats.CtrServeIngested))
	}
	reopen(eight, 8)

	// Cancel while batch 10 is being made durable: the node finishes it,
	// the client submits nothing after, and the drain leaves seq 10.
	sixteen := soloWorkload(16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pcfg := pipeline(sixteen)
	var syncs atomic.Int32
	pcfg.WAL.FS = fault.NewFS(func(op fault.Op, path string) error {
		switch {
		case op == fault.OpFreeSpace:
			return errors.ErrUnsupported // no probe
		case op == fault.OpSync && strings.HasSuffix(path, ".wal") && syncs.Add(1) == 2:
			cancel()
		}
		return nil
	})
	solo(ctx, sixteen, pcfg)
	reopen(sixteen, 10)
}
