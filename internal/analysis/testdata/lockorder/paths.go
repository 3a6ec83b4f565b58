package locktest

// releaseThenReturn releases the mutex on its early path before a
// method call and the return, so nothing is held when it returns.
func (b *box) releaseThenReturn(c bool) int {
	b.mu.Lock()
	if c {
		b.n++
		b.mu.Unlock()
		b.straightLine()
		return 1
	}
	b.mu.Unlock()
	return 0
}
