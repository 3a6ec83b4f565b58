//go:build unix

package replica

import "syscall"

// readWaiting is sessionConn's peek-mode read on unix hosts: one read(2)
// of whatever the socket already holds, which never parks because Go
// keeps its sockets non-blocking underneath.
func (c *sessionConn) readWaiting(p []byte) (int, error) {
	if c.readNow == nil {
		c.readNow = func(fd uintptr) bool {
			c.n, _ = syscall.Read(int(fd), c.buf)
			return true // an empty socket answers EAGAIN: never wait for more
		}
	}
	c.buf = p
	err := c.raw.Read(c.readNow)
	c.buf = nil
	if err != nil {
		return 0, err
	}
	if c.n <= 0 {
		// Nothing yet, or the peer closed or failed: the blocking read
		// that follows reports either.
		return 0, errNothingWaiting
	}
	return c.n, nil
}
