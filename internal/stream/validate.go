package stream

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// Policy selects how the validator handles malformed updates. The ladder
// (DESIGN.md "Failure model & degradation ladder"): PolicyReject surfaces
// the first malformed update as a typed error and refuses the batch;
// PolicyClamp repairs what it can (NaN→0, +Inf→MaxFloat32, negatives→0)
// and drops what it cannot (out-of-range endpoints, self-loops); PolicyQuarantine
// additionally isolates the endpoints of malformed updates — every later
// update touching a quarantined vertex is diverted, on the premise that a
// source emitting garbage about a vertex cannot be trusted about that
// vertex again.
type Policy int

const (
	// PolicyNone disables validation entirely (the pre-hardening behaviour).
	PolicyNone Policy = iota
	// PolicyReject refuses any batch containing a malformed update.
	PolicyReject
	// PolicyClamp repairs salvageable updates and drops the rest.
	PolicyClamp
	// PolicyQuarantine is PolicyClamp plus endpoint quarantine.
	PolicyQuarantine
)

// ParsePolicy maps a -validate flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none", "off":
		return PolicyNone, nil
	case "reject":
		return PolicyReject, nil
	case "clamp":
		return PolicyClamp, nil
	case "quarantine":
		return PolicyQuarantine, nil
	}
	return PolicyNone, fmt.Errorf("stream: unknown validation policy %q (none|reject|clamp|quarantine)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyReject:
		return "reject"
	case PolicyClamp:
		return "clamp"
	case PolicyQuarantine:
		return "quarantine"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ErrMalformedUpdate is the sentinel wrapped by every ValidationError.
var ErrMalformedUpdate = errors.New("stream: malformed update")

// ValidationError reports the first malformed update of a rejected batch.
type ValidationError struct {
	Index  int    // position in the submitted batch
	Class  string // "out_of_range" | "bad_weight" | "self_loop"
	Update graph.Update
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("stream: malformed update at index %d (%s): %d->%d w=%v del=%v",
		e.Index, e.Class, e.Update.Edge.Src, e.Update.Edge.Dst, e.Update.Edge.Weight, e.Update.Delete)
}

func (e *ValidationError) Unwrap() error { return ErrMalformedUpdate }

// Validator screens update batches before they reach the graph store.
// It is the ingestion half of the robustness layer: the store grows its
// vertex set to any ID an update names and float32 NaN/Inf silently
// poisons vertex states, so nothing malformed may pass.
type Validator struct {
	Policy Policy
	// MaxVertices bounds valid endpoint IDs: [0, MaxVertices). Also
	// guards the store's vertex growth against huge injected IDs.
	MaxVertices int
	// C receives the per-class counters; nil disables counting.
	C *stats.Collector

	quarantined map[graph.VertexID]struct{}
}

// NewValidator returns a validator for graphs of numVertices vertices.
func NewValidator(policy Policy, numVertices int, c *stats.Collector) *Validator {
	return &Validator{Policy: policy, MaxVertices: numVertices, C: c}
}

func (v *Validator) inc(name string) {
	if v.C != nil {
		v.C.Inc(name)
	}
}

// classify returns the malformation class of u, or "" when well-formed.
// Classes are checked in severity order: an out-of-range endpoint makes
// the rest of the update meaningless, a bad weight is repairable, a
// self-loop is merely droppable.
func (v *Validator) classify(u graph.Update) string {
	if int(u.Edge.Src) < 0 || int(u.Edge.Src) >= v.MaxVertices ||
		int(u.Edge.Dst) < 0 || int(u.Edge.Dst) >= v.MaxVertices {
		return "out_of_range"
	}
	w := float64(u.Edge.Weight)
	// Negative weights are malformed alongside NaN/Inf: every algorithm
	// in this codebase assumes weights in [0, +Inf) — a negative edge
	// breaks the monotonic engines' termination guarantee (SSSP would
	// relax forever around a negative cycle), so ingestion enforces the
	// precondition.
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return "bad_weight"
	}
	if u.Edge.Src == u.Edge.Dst {
		return "self_loop"
	}
	return ""
}

func classCounter(class string) string {
	switch class {
	case "out_of_range":
		return stats.CtrValOutOfRange
	case "bad_weight":
		return stats.CtrValBadWeight
	case "self_loop":
		return stats.CtrValSelfLoop
	}
	return ""
}

// Sanitize screens a batch under the configured policy. It never modifies
// the input; when anything is dropped or repaired the returned slice is a
// fresh copy, otherwise it is the input itself. Under PolicyReject the
// first malformed update aborts with a *ValidationError and no updates
// are returned. Under PolicyNone the batch passes through untouched.
func (v *Validator) Sanitize(batch []graph.Update) ([]graph.Update, error) {
	if v.Policy == PolicyNone {
		return batch, nil
	}
	out := batch
	dirty := false
	n := 0
	for i, u := range batch {
		class := v.classify(u)
		if class == "" && v.Policy == PolicyQuarantine && v.quarantined != nil {
			_, srcQ := v.quarantined[u.Edge.Src]
			_, dstQ := v.quarantined[u.Edge.Dst]
			if srcQ || dstQ {
				v.inc(stats.CtrValQuarantineHits)
				if !dirty {
					out = make([]graph.Update, len(batch))
					copy(out, batch[:n])
					dirty = true
				}
				continue
			}
		}
		if class == "" {
			if dirty {
				out[n] = u
			}
			n++
			continue
		}
		v.inc(classCounter(class))
		switch v.Policy {
		case PolicyReject:
			v.inc(stats.CtrValRejected)
			return nil, &ValidationError{Index: i, Class: class, Update: u}
		case PolicyQuarantine:
			v.quarantine(u.Edge.Src)
			v.quarantine(u.Edge.Dst)
			fallthrough
		case PolicyClamp:
			if class == "bad_weight" {
				// Repairable: substitute a finite weight in place.
				u.Edge.Weight = clampWeight(u.Edge.Weight)
				v.inc(stats.CtrValClamped)
				if !dirty {
					out = make([]graph.Update, len(batch))
					copy(out, batch[:n])
					dirty = true
				}
				out[n] = u
				n++
				continue
			}
			// Out-of-range and self-loop updates are unsalvageable.
			v.inc(stats.CtrValDropped)
			if !dirty {
				out = make([]graph.Update, len(batch))
				copy(out, batch[:n])
				dirty = true
			}
		}
	}
	if !dirty {
		return batch, nil
	}
	return out[:n], nil
}

func (v *Validator) quarantine(id graph.VertexID) {
	if int(id) < 0 || int(id) >= v.MaxVertices {
		return // out-of-range IDs are not real vertices
	}
	if v.quarantined == nil {
		v.quarantined = make(map[graph.VertexID]struct{})
	}
	if _, ok := v.quarantined[id]; !ok {
		v.quarantined[id] = struct{}{}
		v.inc(stats.CtrValQuarantined)
	}
}

// Quarantined returns the current quarantined vertex set (nil when empty
// or the policy never quarantines).
func (v *Validator) Quarantined() map[graph.VertexID]struct{} { return v.quarantined }

func clampWeight(w float32) float32 {
	f := float64(w)
	switch {
	case math.IsNaN(f):
		return 0
	case math.IsInf(f, 1):
		return math.MaxFloat32
	case f < 0:
		// Includes -Inf: the nearest value satisfying the non-negative
		// weight precondition.
		return 0
	}
	return w
}
