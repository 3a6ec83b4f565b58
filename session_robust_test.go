package tdgraph_test

import (
	"errors"
	"math"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// TestSessionValidationPolicies drives one hostile batch through each
// validation policy and checks the session reacts per the ladder.
func TestSessionValidationPolicies(t *testing.T) {
	edges, nv := sessionEdges()
	hostile := []tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 1, Dst: 2, Weight: 1}},                           // fine
		{Edge: tdgraph.Edge{Src: tdgraph.VertexID(nv + 100), Dst: 2, Weight: 1}},  // out of range
		{Edge: tdgraph.Edge{Src: 3, Dst: 4, Weight: float32(math.NaN())}},         // bad weight
		{Edge: tdgraph.Edge{Src: 5, Dst: 5, Weight: 1}},                           // self-loop
	}

	t.Run("reject", func(t *testing.T) {
		s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv,
			tdgraph.SessionOptions{Validation: tdgraph.ValidationReject})
		if err != nil {
			t.Fatal(err)
		}
		before := s.NumEdges()
		_, err = s.ApplyBatch(hostile)
		var ve *stream.ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("want *stream.ValidationError, got %T %v", err, err)
		}
		if s.NumEdges() != before {
			t.Fatal("rejected batch still changed the graph")
		}
	})

	t.Run("clamp", func(t *testing.T) {
		s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv,
			tdgraph.SessionOptions{Validation: tdgraph.ValidationClamp})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(hostile); err != nil {
			t.Fatalf("clamp policy errored: %v", err)
		}
		rs := s.RobustStats()
		if rs.Get(stats.CtrValOutOfRange) != 1 || rs.Get(stats.CtrValSelfLoop) != 1 ||
			rs.Get(stats.CtrValBadWeight) != 1 || rs.Get(stats.CtrValClamped) != 1 ||
			rs.Get(stats.CtrValDropped) != 2 {
			t.Fatalf("counters: %v", rs.Snapshot())
		}
		// The surviving states must match a reference recompute.
		if v, ok := s.Audit(); !ok {
			t.Fatalf("post-clamp states diverge at %d", v)
		}
	})

	t.Run("quarantine", func(t *testing.T) {
		s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv,
			tdgraph.SessionOptions{Validation: tdgraph.ValidationQuarantine})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(hostile); err != nil {
			t.Fatal(err)
		}
		q := s.Quarantined()
		if _, ok := q[3]; !ok {
			t.Fatalf("endpoint of bad-weight update not quarantined: %v", q)
		}
		// A follow-up clean update touching a quarantined vertex is diverted.
		before := s.NumEdges()
		if _, err := s.ApplyBatch([]tdgraph.Update{
			{Edge: tdgraph.Edge{Src: 3, Dst: 9, Weight: 1}},
		}); err != nil {
			t.Fatal(err)
		}
		if s.NumEdges() != before {
			t.Fatal("update touching a quarantined vertex was applied")
		}
		if s.RobustStats().Get(stats.CtrValQuarantineHits) != 1 {
			t.Fatalf("quarantine hit not counted: %v", s.RobustStats().Snapshot())
		}
	})
}

// panicAlgo wraps a monotonic algorithm and panics in Propagate while
// armed — modelling a transient data-dependent crash in user algorithm
// code, the realistic panic source inside ApplyBatch. It disarms itself
// after one panic so the session's self-heal recompute can succeed.
type panicAlgo struct {
	algo.MonotonicAlgo
	armed bool
}

func (p *panicAlgo) Propagate(srcVal float64, w float32) float64 {
	if p.armed {
		p.armed = false
		panic("panicAlgo: injected propagate crash")
	}
	return p.MonotonicAlgo.Propagate(srcVal, w)
}

// TestSessionPanicRecovery arms a panicking algorithm mid-stream: the
// API must convert the panic to *PanicError and self-heal — subsequent
// batches work and states match the oracle.
func TestSessionPanicRecovery(t *testing.T) {
	edges, nv := sessionEdges()
	pa := &panicAlgo{MonotonicAlgo: algo.MonotonicAlgo(tdgraph.NewSSSP(0))}
	s, err := tdgraph.NewSession(pa, edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pa.armed = true
	_, err = s.ApplyBatch([]tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 0, Dst: 7, Weight: 1}},
	})
	var pe *tdgraph.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T %v", err, err)
	}
	if pe.Op != "ApplyBatch" || len(pe.Stack) == 0 {
		t.Fatalf("panic context incomplete: Op=%q stack=%d bytes", pe.Op, len(pe.Stack))
	}
	if s.RobustStats().Get(stats.CtrPanicsRecovered) != 1 {
		t.Fatalf("recovery not counted: %v", s.RobustStats().Snapshot())
	}
	// The healed session keeps streaming correctly.
	if _, err := s.ApplyBatch([]tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 1, Dst: 2, Weight: 1}},
	}); err != nil {
		t.Fatalf("post-heal batch failed: %v", err)
	}
	if v, ok := s.Audit(); !ok {
		t.Fatalf("post-heal states diverge at %d", v)
	}
}

// alwaysPanicAlgo panics in every Propagate call while armed — the
// persistent-crash case, where even the self-heal recompute panics.
type alwaysPanicAlgo struct {
	algo.MonotonicAlgo
	armed bool
}

func (p *alwaysPanicAlgo) Propagate(srcVal float64, w float32) float64 {
	if p.armed {
		panic("alwaysPanicAlgo: injected propagate crash")
	}
	return p.MonotonicAlgo.Propagate(srcVal, w)
}

// TestSessionPanicInHeal arms a persistently panicking algorithm: even
// when the self-heal recompute panics again, no panic escapes and the
// session keeps a shape-consistent state vector.
func TestSessionPanicInHeal(t *testing.T) {
	edges, nv := sessionEdges()
	for _, opt := range []tdgraph.SessionOptions{{}, nativeOneWorker} {
		pa := &alwaysPanicAlgo{MonotonicAlgo: algo.MonotonicAlgo(tdgraph.NewSSSP(0))}
		s, err := tdgraph.NewSession(pa, edges, nv, opt)
		if err != nil {
			t.Fatal(err)
		}
		pa.armed = true
		// Dst is a new vertex, so the heal must also grow the vector.
		_, err = s.ApplyBatch([]tdgraph.Update{
			{Edge: tdgraph.Edge{Src: 0, Dst: tdgraph.VertexID(nv), Weight: 1}},
		})
		var perr *tdgraph.PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("engine %d: want *PanicError, got %T %v", opt.Engine, err, err)
		}
		if len(s.States()) != s.NumVertices() {
			t.Fatalf("engine %d: state vector shape broken: %d states for %d vertices",
				opt.Engine, len(s.States()), s.NumVertices())
		}
		s.Close()
	}
}

// nativeOneWorker re-runs a robustness story on the native backend,
// whose state vector is a lazily refreshed mirror of the engine's. One
// worker keeps injected panics on the calling goroutine.
var nativeOneWorker = tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, Cores: 1}

// TestSessionDivergenceDegradation corrupts converged states with the
// injector and verifies the audit detects it and CheckAndRepair degrades
// to a recompute whose result matches the reference.
func TestSessionDivergenceDegradation(t *testing.T) {
	edges, nv := sessionEdges()
	for _, c := range []struct {
		a   tdgraph.Algorithm
		opt tdgraph.SessionOptions
	}{
		{tdgraph.NewSSSP(0), tdgraph.SessionOptions{}},
		{tdgraph.NewPageRank(), tdgraph.SessionOptions{}},
		{tdgraph.NewSSSP(0), nativeOneWorker},
	} {
		a := c.a
		s, err := tdgraph.NewSession(a, edges, nv, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// A batch first: the native mirror must be refilled before the
		// injector corrupts it, and again after the repair's recompute.
		if _, err := s.ApplyBatch([]tdgraph.Update{{Edge: tdgraph.Edge{Src: 0, Dst: 42, Weight: 2}}}); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Audit(); !ok {
			t.Fatalf("%s: converged session fails its own audit at %d", a.Name(), v)
		}
		in, _ := fault.Parse("diverge:5", 21)
		if idx := in.CorruptStates(s.States()); len(idx) == 0 {
			t.Fatal("injector corrupted nothing")
		}
		if _, ok := s.Audit(); ok {
			t.Fatalf("%s: audit missed injected divergence", a.Name())
		}
		if !s.CheckAndRepair() {
			t.Fatalf("%s: CheckAndRepair declined to repair", a.Name())
		}
		if v, ok := s.Audit(); !ok {
			t.Fatalf("%s: repaired states still diverge at %d", a.Name(), v)
		}
		rs := s.RobustStats()
		if rs.Get(stats.CtrDegradedRecomputes) != 1 {
			t.Fatalf("%s: degradation not counted: %v", a.Name(), rs.Snapshot())
		}
		if s.CheckAndRepair() {
			t.Fatalf("%s: consistent session repaired again", a.Name())
		}
	}
}

// TestSessionSelfCheck verifies the SelfCheck option audits (and repairs)
// transparently inside ApplyBatch.
func TestSessionSelfCheck(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv,
		tdgraph.SessionOptions{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := fault.Parse("diverge:3", 33)
	in.CorruptStates(s.States())
	if _, err := s.ApplyBatch([]tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 0, Dst: 42, Weight: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if s.RobustStats().Get(stats.CtrDegradedRecomputes) == 0 {
		t.Fatalf("self-check did not degrade: %v", s.RobustStats().Snapshot())
	}
	if v, ok := s.Audit(); !ok {
		t.Fatalf("self-checked session diverges at %d", v)
	}
}
