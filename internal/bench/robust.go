package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// This file is the seeded fault-injection suite (experiment "robust"):
// one scenario per fault class, each driving the injector against the
// hardened pipeline and reporting how the failure was absorbed. Every
// scenario is deterministic — outcomes depend only on the seed, never on
// wall-clock or host parallelism — so two runs with one seed render
// byte-identical tables (the determinism test relies on this).

// robustScale keeps the suite's session-level scenarios small: the suite
// exercises failure paths, not performance, so the smallest preset at a
// fraction of its default size is plenty of graph.
const robustScale = 0.05

// FaultSuiteResult is one scenario row.
type FaultSuiteResult struct {
	Scenario string // "ingest/corrupt", "checkpoint/ckpt-trunc", ...
	Outcome  string // deterministic description of how the fault resolved
}

// robustEdges generates the suite's shared dataset.
func robustEdges(seed int64) ([]graph.Edge, int, error) {
	preset, err := gen.PresetByName("AZ")
	if err != nil {
		return nil, 0, err
	}
	edges, nv := preset.Generate(robustScale)
	return edges, nv, nil
}

// ingestScenario streams injector-mutated batches into a hardened
// session and verifies the survivors leave a consistent state.
func ingestScenario(class fault.Class, seed int64) (FaultSuiteResult, error) {
	r := FaultSuiteResult{Scenario: "ingest/" + string(class)}
	edges, nv, err := robustEdges(seed)
	if err != nil {
		return r, err
	}
	half := len(edges) / 2
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges[:half], nv,
		tdgraph.SessionOptions{Validation: tdgraph.ValidationClamp})
	if err != nil {
		return r, err
	}
	inj, err := fault.Parse(string(class), seed)
	if err != nil {
		return r, err
	}
	const batches = 4
	bs := (len(edges) - half) / batches
	for i := 0; i < batches; i++ {
		part := edges[half+i*bs : half+(i+1)*bs]
		batch := make([]tdgraph.Update, len(part))
		for j, e := range part {
			batch[j] = tdgraph.Update{Edge: e}
		}
		if _, err := s.ApplyBatch(inj.MutateBatch(batch, nv)); err != nil {
			return r, fmt.Errorf("%s: batch %d: %w", r.Scenario, i, err)
		}
	}
	if v, ok := s.Audit(); !ok {
		return r, fmt.Errorf("%s: post-ingest audit diverges at vertex %d", r.Scenario, v)
	}
	rs := s.RobustStats()
	r.Outcome = fmt.Sprintf("injected=%d dropped=%d clamped=%d audit=ok",
		inj.Total(), rs.Get(stats.CtrValDropped), rs.Get(stats.CtrValClamped))
	return r, nil
}

// checkpointScenario corrupts the newest checkpoint generation on disk
// and verifies the rotating checkpointer degrades to the previous one.
func checkpointScenario(class fault.Class, seed int64) (FaultSuiteResult, error) {
	r := FaultSuiteResult{Scenario: "checkpoint/" + string(class)}
	edges, nv, err := robustEdges(seed)
	if err != nil {
		return r, err
	}
	s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		return r, err
	}
	dir, err := os.MkdirTemp("", "tdgraph-robust-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	ck := tdgraph.NewCheckpointer(filepath.Join(dir, "ckpt.tds"))
	if err := ck.SaveWithMeta(s, nil); err != nil {
		return r, err
	}
	if err := ck.SaveWithMeta(s, nil); err != nil {
		return r, err
	}
	data, err := os.ReadFile(ck.Path)
	if err != nil {
		return r, err
	}
	inj, err := fault.Parse(string(class), seed)
	if err != nil {
		return r, err
	}
	if err := os.WriteFile(ck.Path, inj.CorruptCheckpoint(data), 0o644); err != nil {
		return r, err
	}
	restored, _, skipped, err := ck.LoadWithMeta(tdgraph.NewCC(), tdgraph.SessionOptions{})
	if err != nil {
		return r, fmt.Errorf("%s: recovery failed: %w", r.Scenario, err)
	}
	if len(skipped) != 1 {
		return r, fmt.Errorf("%s: expected 1 skipped generation, got %d", r.Scenario, len(skipped))
	}
	if v, ok := restored.Audit(); !ok {
		return r, fmt.Errorf("%s: recovered states diverge at vertex %d", r.Scenario, v)
	}
	r.Outcome = fmt.Sprintf("skipped=%d recovered audit=ok", len(skipped))
	return r, nil
}

// ioScenario schedules a read or write error mid-checkpoint and checks
// it surfaces as a typed error, never a panic or silent success.
func ioScenario(class fault.Class, seed int64) (FaultSuiteResult, error) {
	r := FaultSuiteResult{Scenario: "io/" + string(class)}
	edges, nv, err := robustEdges(seed)
	if err != nil {
		return r, err
	}
	s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		return r, err
	}
	inj, err := fault.Parse(string(class), seed)
	if err != nil {
		return r, err
	}
	switch class {
	case fault.WriteErr:
		err = s.Save(inj.Writer(io.Discard))
	case fault.ReadErr:
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return r, err
		}
		_, err = tdgraph.LoadSession(tdgraph.NewCC(), inj.Reader(&buf), tdgraph.SessionOptions{})
	default:
		return r, fmt.Errorf("%s: not an io fault class", class)
	}
	if err == nil {
		return r, fmt.Errorf("%s: scheduled error did not surface", r.Scenario)
	}
	if !errors.Is(err, fault.ErrInjected) {
		return r, fmt.Errorf("%s: error lost the injected sentinel: %w", r.Scenario, err)
	}
	r.Outcome = "typed error surfaced"
	return r, nil
}

// divergeScenario corrupts converged vertex states in place and checks
// the audit detects it and degradation repairs it to the reference.
func divergeScenario(seed int64) (FaultSuiteResult, error) {
	r := FaultSuiteResult{Scenario: "state/diverge"}
	edges, nv, err := robustEdges(seed)
	if err != nil {
		return r, err
	}
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		return r, err
	}
	inj, err := fault.Parse(string(fault.Diverge)+":5", seed)
	if err != nil {
		return r, err
	}
	hit := inj.CorruptStates(s.States())
	if len(hit) == 0 {
		return r, fmt.Errorf("%s: injector corrupted nothing", r.Scenario)
	}
	if _, ok := s.Audit(); ok {
		return r, fmt.Errorf("%s: audit missed the injected divergence", r.Scenario)
	}
	if !s.CheckAndRepair() {
		return r, fmt.Errorf("%s: CheckAndRepair declined", r.Scenario)
	}
	if v, ok := s.Audit(); !ok {
		return r, fmt.Errorf("%s: repaired states still diverge at vertex %d", r.Scenario, v)
	}
	r.Outcome = fmt.Sprintf("corrupted=%d detected repaired audit=ok", len(hit))
	return r, nil
}

// hangScenario runs a real simulated cell under an already-expired
// watchdog: the machine must abort with a typed watchdog error instead
// of completing or hanging. The pre-cancelled context keeps the
// scenario's outcome independent of wall-clock.
func hangScenario(o Options) (FaultSuiteResult, error) {
	r := FaultSuiteResult{Scenario: "sim/hang"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := o.spec("AZ", "sssp", "TDGraph-H")
	s.Scale = robustScale
	_, err := RunCtx(ctx, s)
	if err == nil {
		return r, fmt.Errorf("%s: expired watchdog did not abort the run", r.Scenario)
	}
	var we *sim.WatchdogError
	if !errors.As(err, &we) {
		return r, fmt.Errorf("%s: abort error untyped: %w", r.Scenario, err)
	}
	r.Outcome = "watchdog tripped, typed error"
	return r, nil
}

// benchScenario runs a measured cell with the injector armed through
// the driver's -faults path and verifies the result against the oracle.
func benchScenario(o Options) (FaultSuiteResult, error) {
	r := FaultSuiteResult{Scenario: "bench/faults"}
	s := o.spec("AZ", "sssp", "TDGraph-H")
	s.Scale = robustScale
	s.Faults = "corrupt,dup,reorder,oob,badweight,selfloop"
	col := stats.NewCollector()
	_, sys, err := BuildForTest(s, col)
	if err != nil {
		return r, err
	}
	p, err := Prepare(s)
	if err != nil {
		return r, err
	}
	if err := processProtected(sys, p.res, col); err != nil {
		return r, err
	}
	if err := VerifyResult(s, sys); err != nil {
		return r, fmt.Errorf("%s: %w", r.Scenario, err)
	}
	r.Outcome = "cell measured under injection, states verified"
	return r, nil
}

// ingestClasses are the update-stream fault classes, suite order.
var ingestClasses = []fault.Class{
	fault.Corrupt, fault.Duplicate, fault.Reorder,
	fault.OutOfRange, fault.BadWeight, fault.SelfLoop,
}

// RunFaultSuite executes every scenario and returns the rows in suite
// order. It is the programmatic face of the "robust" experiment.
func RunFaultSuite(o Options) ([]FaultSuiteResult, error) {
	o = o.withDefaults()
	var rows []FaultSuiteResult
	add := func(r FaultSuiteResult, err error) error {
		if err != nil {
			return err
		}
		rows = append(rows, r)
		return nil
	}
	for _, class := range ingestClasses {
		if err := add(ingestScenario(class, o.Seed)); err != nil {
			return nil, err
		}
	}
	for _, class := range []fault.Class{fault.CkptTruncate, fault.CkptFlip} {
		if err := add(checkpointScenario(class, o.Seed)); err != nil {
			return nil, err
		}
	}
	for _, class := range []fault.Class{fault.WriteErr, fault.ReadErr} {
		if err := add(ioScenario(class, o.Seed)); err != nil {
			return nil, err
		}
	}
	if err := add(divergeScenario(o.Seed)); err != nil {
		return nil, err
	}
	if err := add(hangScenario(o)); err != nil {
		return nil, err
	}
	if err := add(benchScenario(o)); err != nil {
		return nil, err
	}
	return rows, nil
}

func expRobust(w io.Writer, o Options) error {
	rows, err := RunFaultSuite(o)
	if err != nil {
		return err
	}
	t := &Table{
		Title:  "Robustness: seeded fault-injection suite",
		Header: []string{"scenario", "outcome"},
		Comment: "every fault class absorbed: ingestion validated, checkpoints recovered,\n" +
			"I/O errors typed, divergence repaired, hangs aborted by the watchdog",
	}
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Outcome)
	}
	return o.render(t, w)
}

func init() {
	register("robust", "Robustness: seeded fault-injection suite", expRobust)
}
