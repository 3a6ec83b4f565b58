package stream

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
)

func upd(src, dst graph.VertexID, w float32) graph.Update {
	return graph.Update{Edge: graph.Edge{Src: src, Dst: dst, Weight: w}}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"": PolicyNone, "none": PolicyNone, "off": PolicyNone,
		"reject": PolicyReject, "CLAMP": PolicyClamp, "quarantine": PolicyQuarantine,
	}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy must error")
	}
	for _, p := range []Policy{PolicyNone, PolicyReject, PolicyClamp, PolicyQuarantine} {
		if p.String() == "" {
			t.Fatalf("empty String for %d", int(p))
		}
	}
}

func TestSanitizeNonePassesThrough(t *testing.T) {
	v := NewValidator(PolicyNone, 10, nil)
	bad := []graph.Update{upd(999, 2, 1), upd(1, 1, float32(math.NaN()))}
	out, err := v.Sanitize(bad)
	if err != nil || !reflect.DeepEqual(out, bad) {
		t.Fatalf("PolicyNone changed the batch: %v %v", out, err)
	}
}

func TestSanitizeReject(t *testing.T) {
	c := stats.NewCollector()
	v := NewValidator(PolicyReject, 10, c)
	batch := []graph.Update{upd(1, 2, 1), upd(99, 2, 1), upd(3, 4, 1)}
	out, err := v.Sanitize(batch)
	if out != nil {
		t.Fatal("rejected batch must return no updates")
	}
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError, got %T %v", err, err)
	}
	if ve.Index != 1 || ve.Class != "out_of_range" {
		t.Fatalf("wrong error detail: %+v", ve)
	}
	if !errors.Is(err, ErrMalformedUpdate) {
		t.Fatal("ValidationError must wrap ErrMalformedUpdate")
	}
	if c.Get(stats.CtrValOutOfRange) != 1 || c.Get(stats.CtrValRejected) != 1 {
		t.Fatalf("counters: %v", c.Snapshot())
	}
}

func TestSanitizeRejectAllClasses(t *testing.T) {
	for _, tc := range []struct {
		u     graph.Update
		class string
	}{
		{upd(10, 2, 1), "out_of_range"},
		{upd(1, 2, float32(math.NaN())), "bad_weight"},
		{upd(1, 2, float32(math.Inf(1))), "bad_weight"},
		{upd(3, 3, 1), "self_loop"},
	} {
		v := NewValidator(PolicyReject, 10, nil)
		_, err := v.Sanitize([]graph.Update{tc.u})
		var ve *ValidationError
		if !errors.As(err, &ve) || ve.Class != tc.class {
			t.Fatalf("update %+v: want class %s, got %v", tc.u, tc.class, err)
		}
	}
}

func TestSanitizeClamp(t *testing.T) {
	c := stats.NewCollector()
	v := NewValidator(PolicyClamp, 10, c)
	batch := []graph.Update{
		upd(1, 2, 1),                     // kept
		upd(42, 2, 1),                    // dropped: out of range
		upd(3, 4, float32(math.NaN())),   // clamped to 0
		upd(5, 6, float32(math.Inf(1))),  // clamped to +MaxFloat32
		upd(7, 8, float32(math.Inf(-1))), // clamped to 0 (negative)
		upd(9, 9, 1),                     // dropped: self-loop
		{Edge: graph.Edge{Src: 2, Dst: 3, Weight: 5}, Delete: true}, // kept, Delete preserved
	}
	orig := make([]graph.Update, len(batch))
	copy(orig, batch)
	out, err := v.Sanitize(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		// Bitwise comparison: DeepEqual would trip over NaN != NaN.
		if batch[i].Edge.Src != orig[i].Edge.Src || batch[i].Edge.Dst != orig[i].Edge.Dst ||
			math.Float32bits(batch[i].Edge.Weight) != math.Float32bits(orig[i].Edge.Weight) ||
			batch[i].Delete != orig[i].Delete {
			t.Fatalf("Sanitize modified its input at %d: %+v vs %+v", i, batch[i], orig[i])
		}
	}
	if len(out) != 5 {
		t.Fatalf("kept %d updates, want 5: %v", len(out), out)
	}
	if out[1].Edge.Weight != 0 {
		t.Fatalf("NaN not clamped to 0: %v", out[1])
	}
	if out[2].Edge.Weight != math.MaxFloat32 || out[3].Edge.Weight != 0 {
		t.Fatalf("Inf clamping wrong: %v %v", out[2], out[3])
	}
	if !out[4].Delete {
		t.Fatal("Delete flag lost")
	}
	if c.Get(stats.CtrValClamped) != 3 || c.Get(stats.CtrValDropped) != 2 {
		t.Fatalf("counters: %v", c.Snapshot())
	}
}

func TestSanitizeCleanBatchIsZeroCopy(t *testing.T) {
	v := NewValidator(PolicyClamp, 10, nil)
	batch := []graph.Update{upd(1, 2, 1), upd(3, 4, 2)}
	out, err := v.Sanitize(batch)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &batch[0] {
		t.Fatal("clean batch should be returned without copying")
	}
}

func TestSanitizeQuarantine(t *testing.T) {
	c := stats.NewCollector()
	v := NewValidator(PolicyQuarantine, 10, c)
	// First batch: a NaN update quarantines endpoints 3 and 4.
	out, err := v.Sanitize([]graph.Update{upd(3, 4, float32(math.NaN())), upd(1, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 { // NaN update clamped and kept; clean update kept
		t.Fatalf("first batch: %v", out)
	}
	q := v.Quarantined()
	if _, ok := q[3]; !ok {
		t.Fatal("vertex 3 not quarantined")
	}
	if _, ok := q[4]; !ok {
		t.Fatal("vertex 4 not quarantined")
	}
	if c.Get(stats.CtrValQuarantined) != 2 {
		t.Fatalf("quarantined count: %v", c.Snapshot())
	}
	// Second batch: well-formed updates touching quarantined vertices are diverted.
	out, err = v.Sanitize([]graph.Update{upd(3, 5, 1), upd(6, 4, 1), upd(7, 8, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Edge.Src != 7 {
		t.Fatalf("quarantine diversion failed: %v", out)
	}
	if c.Get(stats.CtrValQuarantineHits) != 2 {
		t.Fatalf("quarantine hits: %v", c.Snapshot())
	}
	// Out-of-range endpoints never enter the quarantine set.
	if _, err := v.Sanitize([]graph.Update{upd(99, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.Quarantined()[99]; ok {
		t.Fatal("out-of-range ID must not be quarantined")
	}
}

// Hostile-batch edge cases for the windowing/validation path.

func TestSanitizeEmptyBatch(t *testing.T) {
	for _, p := range []Policy{PolicyNone, PolicyReject, PolicyClamp, PolicyQuarantine} {
		v := NewValidator(p, 10, nil)
		out, err := v.Sanitize(nil)
		if err != nil || len(out) != 0 {
			t.Fatalf("policy %v: empty batch gave %v, %v", p, out, err)
		}
		out, err = v.Sanitize([]graph.Update{})
		if err != nil || len(out) != 0 {
			t.Fatalf("policy %v: zero-length batch gave %v, %v", p, out, err)
		}
	}
}

func TestSanitizeAllDuplicateBatch(t *testing.T) {
	// Duplicates are structurally valid (the store turns repeat adds
	// into Skipped); validation must pass them through untouched.
	v := NewValidator(PolicyQuarantine, 10, nil)
	dup := upd(1, 2, 3)
	batch := []graph.Update{dup, dup, dup, dup}
	out, err := v.Sanitize(batch)
	if err != nil || len(out) != 4 {
		t.Fatalf("all-duplicate batch gave %v, %v", out, err)
	}
	// And the store absorbs them: one Added, rest Skipped, no panic.
	res := graph.NewStore(10).Apply(out)
	if res.Added != 1 || res.Skipped != 3 {
		t.Fatalf("store on duplicates: %+v", res)
	}
}

func TestSanitizeQuarantinedOnlyBatch(t *testing.T) {
	v := NewValidator(PolicyQuarantine, 10, nil)
	if _, err := v.Sanitize([]graph.Update{upd(2, 3, float32(math.Inf(1)))}); err != nil {
		t.Fatal(err)
	}
	// Every update in this batch touches a quarantined vertex.
	out, err := v.Sanitize([]graph.Update{upd(2, 5, 1), upd(5, 3, 1), upd(2, 3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("quarantined-only batch should empty out, got %v", out)
	}
}
