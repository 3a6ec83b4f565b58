package tdgraph_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// randomBatch builds a deterministic mixed add/delete batch over nv
// vertices from rng.
func randomBatch(rng *rand.Rand, nv, size int) []tdgraph.Update {
	batch := make([]tdgraph.Update, 0, size)
	for i := 0; i < size; i++ {
		u := tdgraph.Update{Edge: tdgraph.Edge{
			Src:    tdgraph.VertexID(rng.Intn(nv)),
			Dst:    tdgraph.VertexID(rng.Intn(nv)),
			Weight: float32(1 + rng.Intn(9)),
		}}
		if rng.Float64() < 0.3 {
			u.Delete = true
		}
		batch = append(batch, u)
	}
	return batch
}

func bitsIdentical(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestNativeEngineMatchesSim is the serving-layer equivalence guarantee:
// the native engine session must expose Float64bits-identical states and
// an identical graph to a sim-engine session fed the same stream —
// callers can flip -engine without observing any difference.
func TestNativeEngineMatchesSim(t *testing.T) {
	edges, nv := sessionEdges()
	for _, algName := range []string{"sssp", "cc"} {
		t.Run(algName, func(t *testing.T) {
			mk := func() tdgraph.Algorithm {
				if algName == "cc" {
					return tdgraph.NewCC()
				}
				return tdgraph.NewSSSP(0)
			}
			sim, err := tdgraph.NewSession(mk(), edges, nv, tdgraph.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			nat, err := tdgraph.NewSession(mk(), edges, nv,
				tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, Cores: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer nat.Close()

			rng := rand.New(rand.NewSource(77))
			for batch := 0; batch < 12; batch++ {
				b := randomBatch(rng, nv, 60)
				rs, err := sim.ApplyBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				rn, err := nat.ApplyBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if rs.Added != rn.Added || rs.Deleted != rn.Deleted || rs.Skipped != rn.Skipped {
					t.Fatalf("batch %d: results diverge: sim +%d -%d ~%d, native +%d -%d ~%d",
						batch, rs.Added, rs.Deleted, rs.Skipped, rn.Added, rn.Deleted, rn.Skipped)
				}
				if v := bitsIdentical(sim.States(), nat.States()); v >= 0 {
					t.Fatalf("batch %d: states diverge at vertex %d: sim %v native %v",
						batch, v, sim.State(tdgraph.VertexID(v)), nat.State(tdgraph.VertexID(v)))
				}
				if sim.NumEdges() != nat.NumEdges() || sim.NumVertices() != nat.NumVertices() {
					t.Fatalf("batch %d: graph shape diverges", batch)
				}
			}
			// Recompute outdates the native state mirror like a batch does.
			nat.States()[1] = -1
			nat.Recompute()
			if v := bitsIdentical(sim.States(), nat.States()); v >= 0 {
				t.Fatalf("states stale after Recompute at vertex %d", v)
			}
			if m := nat.Metrics(); algName == "sssp" && (m == nil || m.Get(stats.CtrPropagationVisits) == 0) {
				t.Fatal("native session reports no propagation counters")
			}
			// The sealed view must carry the same edges as the builder's
			// snapshot, sorted identically.
			gs, gn := sim.Graph(), nat.Graph()
			es, en := gs.EdgeList(), gn.EdgeList()
			if len(es) != len(en) {
				t.Fatalf("edge lists differ in length: %d vs %d", len(es), len(en))
			}
			for i := range es {
				if es[i] != en[i] {
					t.Fatalf("edge %d differs: sim %v native %v", i, es[i], en[i])
				}
			}
		})
	}
}

// TestNativeEngineCheckpointCrossEngine proves checkpoints are
// engine-portable: a checkpoint written under one engine restores under
// the other with bit-identical states, and both continuations agree.
func TestNativeEngineCheckpointCrossEngine(t *testing.T) {
	edges, nv := sessionEdges()
	natOpts := tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, Cores: 2}
	src, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, natOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		if _, err := src.ApplyBatch(randomBatch(rng, nv, 40)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ckpt := buf.Bytes()

	asSim, err := tdgraph.LoadSession(tdgraph.NewSSSP(0), bytes.NewReader(ckpt), tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	asNative, err := tdgraph.LoadSession(tdgraph.NewSSSP(0), bytes.NewReader(ckpt), natOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer asNative.Close()
	// The save ran straight after five batches with no read in between,
	// so it is what refilled the state mirror: check it against the
	// from-scratch oracle, not only against the session that wrote it.
	want := algo.Reference(algo.MonotonicAlgo(tdgraph.NewSSSP(0)), asSim.Graph())
	if v := bitsIdentical(asSim.States(), want); v >= 0 {
		t.Fatalf("checkpoint saved after unread batches diverges from the oracle at vertex %d", v)
	}
	if v := bitsIdentical(src.States(), asSim.States()); v >= 0 {
		t.Fatalf("native→sim restore diverges at vertex %d", v)
	}
	if v := bitsIdentical(src.States(), asNative.States()); v >= 0 {
		t.Fatalf("native→native restore diverges at vertex %d", v)
	}
	// Both restored sessions keep agreeing batch for batch.
	for i := 0; i < 5; i++ {
		b := randomBatch(rng, nv, 40)
		if _, err := asSim.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := asNative.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if v := bitsIdentical(asSim.States(), asNative.States()); v >= 0 {
			t.Fatalf("post-restore batch %d diverges at vertex %d", i, v)
		}
	}
}

// TestNativeEnginePanicRecovery pins the robustness contract on the
// native path: an algorithm panic during incremental propagation is
// converted to *PanicError, the session self-heals by recomputing on the
// store, and subsequent batches keep matching the oracle. Workers is 1
// so the injected panic fires on the calling goroutine (a panic on a
// pool goroutine is fatal by design, as with any Go program).
func TestNativeEnginePanicRecovery(t *testing.T) {
	edges, nv := sessionEdges()
	pa := &panicAlgo{MonotonicAlgo: algo.MonotonicAlgo(tdgraph.NewSSSP(0))}
	s, err := tdgraph.NewSession(pa, edges, nv,
		tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pa.armed = true
	_, err = s.ApplyBatch([]tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 0, Dst: 7, Weight: 1}},
	})
	var pe *tdgraph.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T %v", err, err)
	}
	if s.RobustStats().Get(stats.CtrPanicsRecovered) != 1 {
		t.Fatalf("recovery not counted: %v", s.RobustStats().Snapshot())
	}
	// The healed session keeps streaming and matches the from-scratch
	// oracle exactly.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3; i++ {
		if _, err := s.ApplyBatch(randomBatch(rng, nv, 30)); err != nil {
			t.Fatalf("post-heal batch %d: %v", i, err)
		}
	}
	want := algo.Reference(algo.MonotonicAlgo(tdgraph.NewSSSP(0)), s.Graph())
	if v := bitsIdentical(s.States(), want); v >= 0 {
		t.Fatalf("healed states diverge from oracle at vertex %d", v)
	}
}

// TestNativeEngineCloseIdempotent: Close twice is safe, and a sim
// session's Close is a no-op.
func TestNativeEngineCloseIdempotent(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv,
		tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	sim, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim.Close()
}
