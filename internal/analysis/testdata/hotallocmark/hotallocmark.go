// Package hotallocmark proves the //tdgraph:hot doc marker seeds the
// hot set on its own, independent of package path, and that the
// marker must end the word (tdgraph:hotter is not ours).
package hotallocmark

// Kernel is pinned hot by its marker; reachability carries the
// contract into weigh and into a method of an instantiated generic
// type.
//
//tdgraph:hot
func Kernel(xs []int) int {
	total := 0
	for _, x := range xs {
		total += weigh(x)
	}
	var p pool[int]
	p.grow()
	return total
}

// pool is generic: the call above names pool[int].grow, which is
// reached through the generic declaration.
type pool[T any] struct{ items []T }

func (p *pool[T]) grow() {
	p.items = make([]T, 1) // want `make allocates on hot path`
}

func weigh(x int) int {
	buf := make([]int, 1) // want `make allocates on hot path`
	buf[0] = x
	return buf[0]
}

// hotter is not marked — the marker must be followed by a word break.
//
//tdgraph:hotter
func hotter() map[int]int {
	return map[int]int{0: 0}
}

// coldHelper is unreachable from any marked function.
func coldHelper() []int {
	return []int{1, 2, 3}
}
