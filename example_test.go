package tdgraph_test

import (
	"fmt"

	tdgraph "github.com/tdgraph/tdgraph"
)

// ExampleSession demonstrates the basic streaming lifecycle: converge,
// stream a batch, read updated results.
func ExampleSession() {
	edges := []tdgraph.Edge{
		{Src: 0, Dst: 1, Weight: 4},
		{Src: 1, Dst: 2, Weight: 4},
	}
	s, _ := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, 3, tdgraph.SessionOptions{})
	defer s.Close()
	fmt.Println("before:", s.State(2))

	// A shortcut arrives.
	s.ApplyBatch([]tdgraph.Update{{Edge: tdgraph.Edge{Src: 0, Dst: 2, Weight: 3}}})
	fmt.Println("after: ", s.State(2))
	// Output:
	// before: 8
	// after:  3
}

// ExampleSession_deletion shows incremental repair when an edge carrying
// the current best path is removed.
func ExampleSession_deletion() {
	edges := []tdgraph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 0, Dst: 2, Weight: 9},
		{Src: 1, Dst: 2, Weight: 1},
	}
	s, _ := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, 3, tdgraph.SessionOptions{})
	defer s.Close()
	fmt.Println("via 1:", s.State(2))

	s.ApplyBatch([]tdgraph.Update{{Edge: tdgraph.Edge{Src: 1, Dst: 2}, Delete: true}})
	fmt.Println("direct:", s.State(2))
	// Output:
	// via 1: 2
	// direct: 9
}

// ExampleSession_pageRank maintains incremental PageRank as links arrive.
func ExampleSession_pageRank() {
	edges := []tdgraph.Edge{
		{Src: 1, Dst: 0, Weight: 1},
		{Src: 2, Dst: 0, Weight: 1},
	}
	s, _ := tdgraph.NewSession(tdgraph.NewPageRank(), edges, 4, tdgraph.SessionOptions{})
	defer s.Close()
	before := s.State(0)

	// A third page starts linking to page 0: its rank rises.
	s.ApplyBatch([]tdgraph.Update{{Edge: tdgraph.Edge{Src: 3, Dst: 0, Weight: 1}}})
	fmt.Println(s.State(0) > before)
	// Output: true
}
