// Command graphgen emits the synthetic dataset presets (or custom
// generator output) as SNAP-format edge lists, and prints Table 2-style
// statistics.
//
// Usage:
//
//	graphgen -stats [-scale 0.25]
//	graphgen -preset LJ -scale 0.25 -out lj.txt
//	graphgen -kind rmat -vertices 100000 -degree 8 -seed 7 -out g.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
)

func main() {
	var (
		stats    = flag.Bool("stats", false, "print Table 2-style statistics for all presets")
		preset   = flag.String("preset", "", "dataset preset to generate (AZ,DL,GL,LJ,OR,FR)")
		scale    = flag.Float64("scale", 0.25, "preset scale factor")
		kind     = flag.String("kind", "", "custom generator: rmat|ws|er")
		vertices = flag.Int("vertices", 10000, "custom generator vertex count")
		degree   = flag.Int("degree", 8, "custom generator average degree")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	if *stats {
		fmt.Printf("%-4s %-12s %10s %12s %6s %8s\n", "code", "stands for", "|V|", "|E|", "d", "avg deg")
		for _, p := range gen.Presets() {
			edges, nv := p.Generate(*scale)
			st := graph.NewBuilderFromEdges(nv, edges).Snapshot().ComputeStats()
			fmt.Printf("%-4s %-12s %10d %12d %6d %8.2f\n",
				p.Name, p.FullName, st.Vertices, st.Edges, st.Diameter, st.AvgDegree)
		}
		return
	}

	var edges []graph.Edge
	var header string
	switch {
	case *preset != "":
		p, err := gen.PresetByName(*preset)
		if err != nil {
			fatal(err)
		}
		edges, _ = p.Generate(*scale)
		header = fmt.Sprintf("preset %s (%s) scale %g", p.Name, p.FullName, *scale)
	case *kind != "":
		switch *kind {
		case "rmat":
			edges = gen.RMAT(gen.RMATConfig{
				NumVertices: *vertices, NumEdges: *vertices * *degree,
				A: 0.57, B: 0.19, C: 0.19, Seed: *seed, MaxWeight: 64,
			})
		case "ws":
			edges = gen.WattsStrogatz(gen.WattsStrogatzConfig{
				NumVertices: *vertices, K: *degree / 2, Beta: 0.05, Seed: *seed, MaxWeight: 64,
			})
		case "er":
			edges = gen.ErdosRenyi(gen.ErdosRenyiConfig{
				NumVertices: *vertices, NumEdges: *vertices * *degree, Seed: *seed, MaxWeight: 64,
			})
		default:
			fatal(fmt.Errorf("unknown generator kind %q", *kind))
		}
		header = fmt.Sprintf("%s V=%d deg=%d seed=%d", *kind, *vertices, *degree, *seed)
	default:
		fatal(fmt.Errorf("one of -stats, -preset, or -kind is required"))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteSNAP(w, edges, header); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Printf("wrote %d edges to %s\n", len(edges), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
