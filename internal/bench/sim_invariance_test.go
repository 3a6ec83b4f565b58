package bench

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/enginetest"
)

// TestSimulationDoesNotChangeResults: the machine is a pure observer.
// Every scheme in the scheme table computes the same states, bit for
// bit, on the null port (no machine) as on the simulated machine Build
// gives it.
func TestSimulationDoesNotChangeResults(t *testing.T) {
	names := make([]string, 0, len(schemes))
	for name := range schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, algoName := range []string{"sssp", "pagerank"} {
		t.Run(algoName, func(t *testing.T) {
			c, err := enginetest.Make(algoName, enginetest.Config{
				Vertices: 1200, Degree: 5, BatchSize: 150, AddFraction: 0.6, Seed: 77,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				t.Run(name, func(t *testing.T) {
					spec := Spec{Scheme: name, Cores: 4}
					plain := schemes[name].system(spec, c.NewRuntime(engine.Options{Cores: spec.Cores}))
					plain.Process(c.Res)
					if err := c.Verify(plain); err != nil {
						t.Fatal(err)
					}
					cell, err := Build(spec, c)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := cell.Run(context.Background()); err != nil {
						t.Fatal(err)
					}
					want, got := plain.Runtime().S, cell.Sys.Runtime().S
					if len(got) != len(want) {
						t.Fatalf("%d states on the machine, %d without", len(got), len(want))
					}
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("vertex %d: %v on the machine, %v without", v, got[v], want[v])
						}
					}
				})
			}
		})
	}
}
