package tdgraph_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/native"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
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

// TestNativeEngineMatchesSim is the one place the two engines meet: a
// Session must expose Float64bits-identical states and an identical
// graph to the functional topology-driven engine — the paper's machine
// without the simulator — fed the same stream over its own graph.Store's
// sealed snapshots. The two stores share code, so the edge-list check
// here pins the session's bookkeeping around its store; the store itself
// is held to an independent graph by TestStoreMatchesBuilder.
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
			sim := enginetest.NewRunner(mk(), edges, nv, enginetest.TopologyDriven)
			nat, err := tdgraph.NewSession(mk(), edges, nv, tdgraph.SessionOptions{Cores: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer nat.Close()

			rng := rand.New(rand.NewSource(77))
			for batch := 0; batch < 12; batch++ {
				b := randomBatch(rng, nv, 60)
				rs := sim.Apply(b)
				rn, err := nat.ApplyBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if rs.Added != rn.Added || rs.Deleted != rn.Deleted || rs.Skipped != rn.Skipped {
					t.Fatalf("batch %d: results diverge: sim +%d -%d ~%d, native +%d -%d ~%d",
						batch, rs.Added, rs.Deleted, rs.Skipped, rn.Added, rn.Deleted, rn.Skipped)
				}
				if v := bitsIdentical(sim.S, nat.States()); v >= 0 {
					t.Fatalf("batch %d: states diverge at vertex %d: sim %v native %v",
						batch, v, sim.S[v], nat.State(tdgraph.VertexID(v)))
				}
				if sim.G.NumEdges() != nat.NumEdges() || sim.G.NumVertices != nat.NumVertices() {
					t.Fatalf("batch %d: graph shape diverges", batch)
				}
			}
			// Recompute outdates the native state mirror like a batch does.
			nat.States()[1] = -1
			nat.Recompute()
			if v := bitsIdentical(sim.S, nat.States()); v >= 0 {
				t.Fatalf("states stale after Recompute at vertex %d", v)
			}
			if m := nat.Metrics(); algName == "sssp" && (m == nil || m.Get(stats.CtrPropagationVisits) == 0) {
				t.Fatal("native session reports no propagation counters")
			}
			// The sealed view must carry the same edges as the runner's
			// snapshot, sorted identically.
			es, en := sim.G.EdgeList(), nat.Graph().EdgeList()
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

// TestNativeEngineCheckpointCrossEngine: a checkpoint restores with
// bit-identical states, and the restored session keeps agreeing with
// the one that wrote it. (Its sim arm went with the Session's second
// engine; TestNativeEngineMatchesSim owns the cross-engine check.)
func TestNativeEngineCheckpointCrossEngine(t *testing.T) {
	edges, nv := sessionEdges()
	opts := tdgraph.SessionOptions{Cores: 2}
	src, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, opts)
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
	restored, err := tdgraph.LoadSession(tdgraph.NewSSSP(0), &buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	// The save ran straight after five batches with no read in between,
	// so it streamed the engine's own states: check them against the
	// from-scratch oracle, not only against the session that wrote them.
	want := algo.Reference(algo.MonotonicAlgo(tdgraph.NewSSSP(0)), restored.Graph())
	if v := bitsIdentical(restored.States(), want); v >= 0 {
		t.Fatalf("checkpoint saved after unread batches diverges from the oracle at vertex %d", v)
	}
	if v := bitsIdentical(src.States(), restored.States()); v >= 0 {
		t.Fatalf("restore diverges at vertex %d", v)
	}
	// Both sessions keep agreeing batch for batch.
	for i := 0; i < 5; i++ {
		b := randomBatch(rng, nv, 40)
		if _, err := src.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if v := bitsIdentical(src.States(), restored.States()); v >= 0 {
			t.Fatalf("post-restore batch %d diverges at vertex %d", i, v)
		}
	}
}

// TestNativeEnginePanicRecovery pins the robustness contract on the
// native path, here for SSSP (TestAccumulativePanicRecovery: PageRank):
// a panic during incremental propagation becomes *PanicError, the
// session self-heals by recomputing on the store, and later batches
// keep matching the oracle. With Workers 1 the injected panic fires on
// the calling goroutine; the "2 workers" case fires it on a pool
// goroutine.
func TestNativeEnginePanicRecovery(t *testing.T) {
	t.Run("2 workers", testPeerPanicMono)
	edges, nv := sessionEdges()
	pa := &panicAlgo{MonotonicAlgo: algo.MonotonicAlgo(tdgraph.NewSSSP(0))}
	s, err := tdgraph.NewSession(pa, edges, nv, tdgraph.SessionOptions{Cores: 1})
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

// testPeerPanicMono panics on worker 1 of a 2-worker native session.
// The batch's one insertion improves one vertex, so the first frontier
// round has one vertex, which ApplyBatchRounds' contiguous shards give to
// worker 1, and its visit makes the second Propagate call. runPool must
// carry that panic to the caller once the pool has joined, and the
// session must heal with Recompute.
func testPeerPanicMono(t *testing.T) {
	edges, nv := sessionEdges()
	st := graph.NewStoreFromEdges(nv, edges)
	pa := &panicSecond{MonotonicAlgo: algo.MonotonicAlgo(tdgraph.NewSSSP(0))}
	s := native.NewSession(pa, st, native.Config{Workers: 2})
	defer s.Close()
	dst := graph.VertexID(1)
	for st.OutDegree(dst) == 0 || s.State(dst) <= 0.5 {
		dst++
	}
	pa.armed = true
	var r any
	func() {
		defer func() { r = recover() }()
		s.ApplyBatchRounds([]graph.Update{{Edge: graph.Edge{Src: 0, Dst: dst, Weight: 0.5}}})
	}()
	if r != "panicSecond: injected propagate crash" || pa.calls != 2 {
		t.Fatalf("recovered %v after %d Propagate calls, want the injected panic from propagation", r, pa.calls)
	}
	s.Recompute()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3; i++ {
		s.ApplyBatchRounds(randomBatch(rng, nv, 30))
	}
	if v := bitsIdentical(s.StatesCopy(), algo.Reference(algo.MonotonicAlgo(tdgraph.NewSSSP(0)), st.Seal())); v >= 0 {
		t.Fatalf("healed states diverge from oracle at vertex %d", v)
	}
}

// panicSecond panics on the second Propagate call once armed, then
// disarms: the first is the serial repair's relaxation of the batch's
// one insertion, so the second comes from propagation.
type panicSecond struct {
	algo.MonotonicAlgo
	armed bool
	calls int
}

func (p *panicSecond) Propagate(srcVal float64, w float32) float64 {
	if p.armed {
		if p.calls++; p.calls == 2 {
			p.armed = false
			panic("panicSecond: injected propagate crash")
		}
	}
	return p.MonotonicAlgo.Propagate(srcVal, w)
}

// panicShare panics on the second Share call once armed, then disarms:
// the first is the serial repair's, for the batch's one new out-edge of
// a source with none, so the second comes from propagation.
type panicShare struct {
	algo.AccumulativeAlgo
	armed bool
	calls int
}

func (p *panicShare) Share(w float32, deg int, total float64) float64 {
	if p.armed {
		if p.calls++; p.calls == 2 {
			p.armed = false
			panic("panicShare: injected propagate crash")
		}
	}
	return p.AccumulativeAlgo.Share(w, deg, total)
}

// TestAccumulativePanicRecovery: a PageRank Share that panics inside
// propagation comes back as *PanicError, and the healed session keeps
// streaming within tolerance of the oracle. The batch's one new edge
// seeds a one-vertex first round, so with 2 workers the panic fires on
// worker 1, a pool goroutine (contiguous shards give it the vertex).
func TestAccumulativePanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			edges, nv := sessionEdges()
			pa := &panicShare{AccumulativeAlgo: tdgraph.NewPageRank()}
			s, err := tdgraph.NewSession(pa, edges, nv, tdgraph.SessionOptions{Cores: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			pa.armed = true
			_, err = s.ApplyBatch([]tdgraph.Update{{Edge: tdgraph.Edge{Src: tdgraph.VertexID(nv), Dst: 0, Weight: 1}}})
			var pe *tdgraph.PanicError
			if !errors.As(err, &pe) || pa.calls != 2 {
				t.Fatalf("want *PanicError from propagation, got %T %v after %d Share calls", err, err, pa.calls)
			}
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 3; i++ {
				if _, err := s.ApplyBatch(randomBatch(rng, nv, 30)); err != nil {
					t.Fatalf("post-heal batch %d: %v", i, err)
				}
			}
			if v := algo.StatesEqual(s.States(), algo.Reference(tdgraph.NewPageRank(), s.Graph()), 1e-4); v >= 0 {
				t.Fatalf("healed states diverge from oracle at vertex %d", v)
			}
		})
	}
}

// TestNativeEngineCloseIdempotent: Close twice is safe.
func TestNativeEngineCloseIdempotent(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
}

// TestColdStartMatchesReference holds both cold starts — NewSession and
// a Save → LoadSession round trip — to algo.Reference, before and after
// a deletion-bearing stream, on an R-MAT graph with hubs past the linear
// tier in both directions and repeated warm-up edges. Both of the
// store's directions are placed on a loader goroutine while the
// monotonic bootstrap runs over the loader's rows, so under -race this
// is the check that the bootstrap reads no store before the join.
func TestColdStartMatchesReference(t *testing.T) {
	const nv = 8192
	edges := gen.RMAT(gen.RMATConfig{NumVertices: nv, NumEdges: 65_536, A: 0.57, B: 0.19, C: 0.19, Seed: 7, MaxWeight: 16})
	w := stream.Build(edges, nv, stream.Config{WarmupFraction: 0.75, BatchSize: 512, AddFraction: 0.5, NumBatches: 6, Seed: 7})
	warm := append([]tdgraph.Edge(nil), w.Warmup...)
	for i := 0; i < len(w.Warmup); i += 5 {
		e := w.Warmup[i]
		e.Weight++
		warm = append(warm, e) // the later weight wins
	}
	for _, mk := range []func() tdgraph.Algorithm{
		func() tdgraph.Algorithm { return tdgraph.NewSSSP(0) },
		func() tdgraph.Algorithm { return tdgraph.NewCC() },
		// NewPageRank's Eps of 1e-7 lets the truncated deltas into this
		// graph's top hub sum past 1e-4 under some schedules (parallel
		// delta rounds); 1e-9 keeps them two orders below it.
		func() tdgraph.Algorithm { return &algo.PageRank{Damp: 0.85, Eps: 1e-9} },
	} {
		a := mk()
		t.Run(a.Name(), func(t *testing.T) {
			check := func(how string, s *tdgraph.Session) {
				t.Helper()
				got, want := s.States(), algo.Reference(mk(), s.Graph())
				mismatch := bitsIdentical(got, want)
				if _, ok := a.(algo.AccumulativeAlgo); ok {
					mismatch = algo.StatesEqual(got, want, 1e-4)
				}
				if mismatch >= 0 {
					t.Fatalf("%s: vertex %d of %d is %v, the reference %v", how, mismatch, len(want), got[mismatch], want[mismatch])
				}
			}
			fresh, err := tdgraph.NewSession(a, warm, nv, tdgraph.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			g, maxOut, maxIn := fresh.Graph(), 0, 0
			for v := range tdgraph.VertexID(nv) {
				maxOut, maxIn = max(maxOut, len(g.OutNeighbors(v))), max(maxIn, len(g.InNeighborsOf(v)))
			}
			if g.NumEdges() != len(w.Warmup) || maxOut <= 64 || maxIn <= 64 {
				t.Fatalf("warm-up: %d edges (want %d), max degree out %d / in %d: the repeats did not fold or no hub passed the linear tier",
					g.NumEdges(), len(w.Warmup), maxOut, maxIn)
			}
			check("NewSession", fresh)
			var ckpt bytes.Buffer
			if err := fresh.Save(&ckpt); err != nil {
				t.Fatal(err)
			}
			loaded, err := tdgraph.LoadSession(mk(), &ckpt, tdgraph.SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			check("LoadSession", loaded)
			for i, batch := range w.Batches {
				for _, s := range []*tdgraph.Session{fresh, loaded} {
					if _, err := s.ApplyBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("NewSession, batch %d", i), fresh)
				check(fmt.Sprintf("LoadSession, batch %d", i), loaded)
			}
		})
	}
}
