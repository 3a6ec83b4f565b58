package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/tdgraph/tdgraph/internal/bench"
)

// TestOneBatchPrintsBenchCell requires a one-batch run to print the
// simulated cycles and DRAM bytes bench.Run measures for the same cell,
// for every scheme: a command-line run is a bench cell.
func TestOneBatchPrintsBenchCell(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "tdgraph-run")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	printed := regexp.MustCompile(`(?s)simulated cycles: (\d+) .*DRAM traffic: (\d+) bytes`)
	for _, scheme := range []string{
		"Ligra-o", "GraphBolt", "KickStarter", "DZiG",
		"TDGraph-H", "TDGraph-S", "TDGraph-H-without", "TDGraph-S-without",
		"TDGraph-H-GRASP", "TDGraph-nosync",
		"HATS", "Minnow", "PHI", "DepGraph", "JetStream", "JetStream-with", "GraphPulse",
	} {
		out, err := exec.Command(bin, "-dataset", "AZ", "-scale", "0.06", "-algo", "sssp",
			"-seed", "1", "-batches", "1", "-scheme", scheme).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", scheme, err, out)
		}
		m := printed.FindSubmatch(out)
		if m == nil {
			t.Fatalf("%s: no cycles or DRAM line in\n%s", scheme, out)
		}
		want, err := bench.Run(bench.Spec{Dataset: "AZ", Scale: 0.06, Algo: "sssp", Scheme: scheme, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s cycles, %s DRAM bytes", m[1], m[2])
		if w := fmt.Sprintf("%.0f cycles, %d DRAM bytes", want.Cycles, want.DRAMBytes); got != w {
			t.Errorf("%s: tdgraph-run printed %s, bench.Run measured %s", scheme, got, w)
		}
	}
	bench.ClearCache()
}
