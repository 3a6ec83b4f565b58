package bench_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/tdgraph/tdgraph/internal/bench"
)

// tinySpec keeps harness tests fast.
func tinySpec(scheme string) bench.Spec {
	return bench.Spec{
		Dataset: "LJ", Scale: 0.02, Algo: "sssp", Scheme: scheme,
		Cores: 8, Seed: 1,
	}
}

// TestRunAllSchemes drives every scheme through the driver at tiny scale
// and verifies the resulting states against the oracle.
func TestRunAllSchemes(t *testing.T) {
	schemes := []string{
		"Ligra-o", "GraphBolt", "KickStarter", "DZiG",
		"TDGraph-H", "TDGraph-S", "TDGraph-H-without", "TDGraph-S-without",
		"TDGraph-H-GRASP", "TDGraph-nosync",
		"HATS", "Minnow", "PHI", "DepGraph", "JetStream", "JetStream-with", "GraphPulse",
	}
	for _, s := range schemes {
		t.Run(s, func(t *testing.T) {
			r, err := bench.Run(tinySpec(s))
			if err != nil {
				t.Fatal(err)
			}
			if r.Cycles <= 0 {
				t.Fatal("no simulated time")
			}
			if r.StateUpdates == 0 {
				t.Fatal("no update operations recorded")
			}
		})
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if _, err := bench.Run(tinySpec("NoSuchThing")); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestRunDeterminism requires two identical runs to produce identical
// cycle counts and counters.
func TestRunDeterminism(t *testing.T) {
	a, err := bench.Run(tinySpec("TDGraph-H"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.Run(tinySpec("TDGraph-H"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %v vs %v", a.Cycles, b.Cycles)
	}
	sa, sb := a.Collector.Snapshot(), b.Collector.Snapshot()
	for k, v := range sa {
		if sb[k] != v {
			t.Fatalf("counter %s differs: %d vs %d", k, v, sb[k])
		}
	}
}

// TestResultsAreCorrect runs the driver path and verifies the engine's
// final states against the full-recompute oracle via Case.Verify.
func TestResultsAreCorrect(t *testing.T) {
	for _, scheme := range []string{"Ligra-o", "TDGraph-H", "JetStream"} {
		c, err := bench.Build(tinySpec(scheme), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := c.Case.Verify(c.Sys); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExperimentsRegistered checks the registry covers every table and
// figure of the evaluation section.
func TestExperimentsRegistered(t *testing.T) {
	want := []string{
		"table1", "table2", "fig3a", "fig3b", "fig3c", "fig4a", "fig4b",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
		"fig24a", "fig24b", "table3", "benchnative", "robust",
	}
	for _, id := range want {
		if _, ok := bench.ByID(id); !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if len(bench.Experiments()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(bench.Experiments()), len(want))
	}
}

// TestStaticExperimentsRun exercises the experiments that need no
// simulation sweep.
func TestStaticExperimentsRun(t *testing.T) {
	for _, id := range []string{"table1", "table3"} {
		e, _ := bench.ByID(id)
		var buf bytes.Buffer
		if err := e.Run(&buf, bench.Options{Scale: 0.02, Cores: 8}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// TestSmallExperimentRuns drives every registered experiment at tiny
// scale on a restricted dataset/algo sweep — the same code paths
// cmd/tdgraph-bench executes.
func TestSmallExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := bench.Options{Scale: 0.02, Cores: 8, Datasets: []string{"LJ"}, Algos: []string{"sssp"}}
	for _, e := range bench.Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, opt); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !strings.Contains(buf.String(), "==") {
				t.Fatalf("%s output missing table header: %q", e.ID, buf.String())
			}
		})
	}
	bench.ClearCache()
}

// TestExperimentsCSV renders one experiment in CSV mode.
func TestExperimentsCSV(t *testing.T) {
	e, _ := bench.ByID("table3")
	var buf bytes.Buffer
	if err := e.Run(&buf, bench.Options{CSV: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TDGraph,647") {
		t.Fatalf("CSV output unexpected: %q", buf.String())
	}
}

// TestNewSystemCoverage ensures the scheme table and the runtime layout
// agree for TDGraph variants (TDGraph structures must be allocated).
func TestNewSystemCoverage(t *testing.T) {
	c, err := bench.Build(tinySpec("TDGraph-H"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if l := c.Sys.Runtime().L; l.TopoList.Size == 0 || l.Coalesced.Size == 0 {
		t.Fatal("TDGraph layout regions missing")
	}
	if c.Sys.Name() != "TDGraph-H" {
		t.Fatalf("scheme name %q", c.Sys.Name())
	}
}
