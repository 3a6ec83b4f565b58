// Package a holds two lockhold waivers: a live one on a call into
// package b, which blocks, and one that covers nothing.
package a

import (
	"sync"

	"stalemod/b"
)

// T guards n with mu.
type T struct {
	mu sync.Mutex
	n  int
}

// Live calls b.Slow under mu.
func (t *T) Live() {
	t.mu.Lock()
	defer t.mu.Unlock()
	//tdgraph:allow lockhold the sleep is bounded
	b.Slow()
}

// Dead blocks on nothing under mu.
func (t *T) Dead() {
	t.mu.Lock()
	defer t.mu.Unlock()
	//tdgraph:allow lockhold nothing here blocks
	t.n++
}
