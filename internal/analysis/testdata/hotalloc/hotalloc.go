// Package native (loaded under an internal/native import path by the
// golden test) exercises the Session hot entry points: ApplyBatch and
// propagate seed the hot set, reachability carries it into helpers,
// and each allocation class fires exactly where it allocates. The
// same directory loaded under a non-native path must produce nothing
// — that is the package gate test.
package native

import "fmt"

type VertexID uint32

type Session struct {
	dist    []float64
	scratch []VertexID
}

//tdgraph:hot
func (s *Session) ApplyBatch(batch []VertexID) int {
	n := 0
	for _, v := range batch {
		n += s.improve(v)
	}
	s.propagate()
	return n
}

func (s *Session) improve(v VertexID) int {
	s.mustPositive(v)
	s.scratch = append(s.scratch, v) // field append: buffer reuse, exempt
	return int(v)
}

//tdgraph:hot
func (s *Session) propagate() {
	defer func() { // deferred literal: runs on the exit edge, exempt
		recover()
	}()
	visit := func(v VertexID) VertexID { return v } // want `closure allocation on hot path`
	_ = visit
	seen := make(map[VertexID]bool) // want `make allocates on hot path`
	_ = seen
	var fresh []VertexID
	fresh = append(fresh, 1) // want `append to a slice born empty here grows every call`
	_ = fresh
	s.trace("relax")
	s.box(7)
}

func (s *Session) trace(msg string) {
	fmt.Println(msg) // want `fmt.Println allocates on hot path`
}

func sink(v interface{}) {}

func (s *Session) box(v VertexID) {
	sink(v) // want `argument boxes into interface parameter`
}

// mustPositive may allocate while dying: panic arguments are exempt.
func (s *Session) mustPositive(v VertexID) {
	if v == 0 {
		panic(fmt.Sprintf("bad vertex %d", v))
	}
}

// cold is not reachable from the hot set: anything goes here.
func cold() map[int]int {
	return map[int]int{1: 1}
}
