package bench

import (
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// propagationOverlap implements the Fig 4(a) measurement: for every
// vertex affected by the batch, compute the set of vertices its state
// propagation would visit (the downstream reachable region on the new
// snapshot), and report how many visited vertices are shared by at least
// two propagations. Roots are capped to bound the sweep on large
// affected sets, matching the paper's sampled statistical study.
func propagationOverlap(s Spec) (visited, shared int, err error) {
	p, err := Prepare(s)
	if err != nil {
		return 0, 0, err
	}
	const maxRoots = 256
	roots := p.Res.Affected
	if len(roots) > maxRoots {
		roots = roots[:maxRoots]
	}
	g := p.NewG
	seen := make([]uint8, g.NumVertices) // 0 unvisited, 1 one root, 2 many
	mark := make([]int32, g.NumVertices)
	for i := range mark {
		mark[i] = -1
	}
	for ri, root := range roots {
		stack := []graph.VertexID{root}
		mark[root] = int32(ri)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] < 2 {
				seen[v]++
			}
			for _, w := range g.OutNeighbors(v) {
				if mark[w] != int32(ri) {
					mark[w] = int32(ri)
					stack = append(stack, w)
				}
			}
		}
	}
	for _, c := range seen {
		if c >= 1 {
			visited++
		}
		if c >= 2 {
			shared++
		}
	}
	return visited, shared, nil
}

// accessCounts runs the scheme natively (no machine) with per-vertex
// state-access counting enabled and returns the counts — the raw data of
// Fig 4(b).
func accessCounts(s Spec) ([]uint32, error) {
	s = s.withDefaults()
	p, err := Prepare(s)
	if err != nil {
		return nil, err
	}
	col := stats.NewCollector()
	rt := p.NewRuntime(engine.Options{
		Cores:     s.Cores,
		Collector: col,
	})
	rt.AccessCount = make([]uint32, p.NewG.NumVertices)
	sch, err := schemeFor(s.Scheme)
	if err != nil {
		return nil, err
	}
	sch.system(s, rt).Process(p.Res)
	return rt.AccessCount, nil
}
