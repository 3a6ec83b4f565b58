// Package lockhold exercises every blocking class and every escape:
// sleeps, dials, bare channel ops, WaitGroup.Wait, stream I/O with and
// without a deadline guard, on concrete and interface-typed streams and
// through the io package's stream helpers,
// select escapes, go/defer exemptions, and transitive propagation
// through helpers, one and two levels deep.
package lockhold

import (
	"bytes"
	"io"
	"net"
	"sync"
	"time"
)

type queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup
	ch   chan int
	conn *stream
	dial func(addr string) (net.Conn, error)
	clk  clock
	log  ledger
}

// clock is a clock seam: a Sleep through the interface sleeps.
type clock interface{ Sleep(d time.Duration) }

// ledger has a Write, but is no stream: it neither is nor embeds
// net.Conn, io.Reader or io.Writer.
type ledger interface{ Write(v int) }

// flushWriter embeds io.Writer, so its Write is a stream write.
type flushWriter interface {
	io.Writer
	Flush() error
}

// stream is a concrete net.Conn-shaped type: the deadline-method
// triple is the fingerprint lockhold keys on.
type stream struct{}

func (*stream) Read(p []byte) (int, error)        { return 0, nil }
func (*stream) Write(p []byte) (int, error)       { return len(p), nil }
func (*stream) Close() error                      { return nil }
func (*stream) SetReadDeadline(t time.Time) error { return nil }
func (*stream) SetWriteDeadline(t time.Time) error {
	return nil
}

func (q *queue) sleepUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep blocks while holding q.mu`
}

func (q *queue) dialUnderLock(addr string) net.Conn {
	q.mu.Lock()
	defer q.mu.Unlock()
	c, _ := net.Dial("tcp", addr) // want `net.Dial blocks on the network while holding q.mu`
	return c
}

func (q *queue) dialSeamUnderLock(addr string) net.Conn {
	q.mu.Lock()
	defer q.mu.Unlock()
	c, _ := q.dial(addr) // want `dial through func value blocks on the network while holding q.mu`
	return c
}

func (q *queue) sendUnderLock(v int) {
	q.mu.Lock()
	q.ch <- v // want `bare channel send blocks while holding q.mu`
	q.mu.Unlock()
}

func (q *queue) recvUnderLock() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return <-q.ch // want `bare channel receive blocks while holding q.mu`
}

func (q *queue) drainUnderLock() (n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for v := range q.ch { // want `range over channel blocks between messages while holding q.mu`
		n += v
	}
	return n
}

func (q *queue) waitUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.wg.Wait() // want `WaitGroup.Wait blocks until all workers finish while holding q.mu`
}

// condWait is exempt: (*sync.Cond).Wait releases the mutex.
func (q *queue) condWait() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cond.Wait()
}

func (q *queue) writeUnderLock(p []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.conn.Write(p) // want `Write on net.Conn blocks without a deadline while holding q.mu`
}

// WriteFrame writes through an io.Writer, which may be a socket: the
// Write blocks intrinsically, and a locked call to WriteFrame is flagged.
func WriteFrame(w io.Writer, p []byte) error {
	_, err := w.Write(p)
	return err
}

func (q *queue) frameUnderLock(w io.Writer, p []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	WriteFrame(w, p) // want `call to lockhold\.WriteFrame while holding q.mu: it Write on io.Writer blocks without a deadline`
}

func (q *queue) streamsUnderLock(c net.Conn, r io.Reader, fw flushWriter, p []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	c.Read(p)      // want `Read on net.Conn blocks without a deadline while holding q.mu`
	r.Read(p)      // want `Read on io.Reader blocks without a deadline while holding q.mu`
	fw.Write(p)    // want `Write on lockhold.flushWriter blocks without a deadline while holding q.mu`
	q.log.Write(1) // not a stream
	q.clk.Sleep(0) // want `\(lockhold\.clock\)\.Sleep sleeps while holding q.mu`
}

// helpersUnderLock: the io helpers block when any argument is a stream,
// the reader or the writer; over buffers alone they do not.
func (q *queue) helpersUnderLock(c net.Conn, r io.Reader, w io.Writer, buf *bytes.Buffer, p []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	io.ReadFull(r, p)                  // want `io.ReadFull on io.Reader blocks without a deadline while holding q.mu`
	io.ReadAtLeast(q.conn, p, 1)       // want `io.ReadAtLeast on net.Conn blocks without a deadline while holding q.mu`
	io.Copy(w, buf)                    // want `io.Copy on io.Writer blocks without a deadline while holding q.mu`
	io.CopyN(buf, c, 4)                // want `io.CopyN on net.Conn blocks without a deadline while holding q.mu`
	io.CopyBuffer(buf, r, p)           // want `io.CopyBuffer on io.Reader blocks without a deadline while holding q.mu`
	io.ReadFull(bytes.NewReader(p), p) // no stream: a *bytes.Reader
	io.Copy(buf, bytes.NewReader(p))
}

// readFull is the readFrame shape: a helper that waits in io.ReadFull.
func readFull(r io.Reader, p []byte) error {
	_, err := io.ReadFull(r, p)
	return err
}

func (q *queue) readFullUnderLock(r io.Reader, p []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	readFull(r, p) // want `call to lockhold\.readFull while holding q.mu: it io.ReadFull on io.Reader blocks without a deadline`
}

// readWithDeadline: a deadline guards the helper as it guards a Read.
func (q *queue) readWithDeadline(p []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.conn.SetReadDeadline(time.Time{})
	io.ReadFull(q.conn, p)
}

// writeWithDeadline is the writeFrame idiom: the deadline bounds the
// I/O, so the same Write passes.
func (q *queue) writeWithDeadline(p []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.conn.SetWriteDeadline(time.Time{})
	q.conn.Write(p)
}

// singleSelect is a decorated bare receive; multiSelect and
// defaultSelect have escape paths and pass.
func (q *queue) singleSelect() {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // want `single-clause select blocks like a bare channel op while holding q.mu`
	case <-q.ch:
	}
}

func (q *queue) multiSelect(done chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case <-q.ch:
	case <-done:
	}
}

func (q *queue) defaultSelect() {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case <-q.ch:
	default:
	}
}

// slowPoll blocks intrinsically but holds nothing itself: clean here,
// flagged at any locked call site.
func (q *queue) slowPoll() {
	time.Sleep(time.Millisecond)
}

func (q *queue) pollUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.slowPoll() // want `call to \(\*lockhold\.queue\)\.slowPoll while holding q.mu: it time.Sleep blocks`
}

// pollA and pollB block only through slowPoll: the fixpoint, not the
// first walk, marks them.
func (q *queue) pollA() { q.slowPoll() }
func (q *queue) pollB() { q.slowPoll() }

// bothPolls reaches two blocking callees. Which one its reason names
// depends on which of them the fixpoint has marked when it reaches
// bothPolls, so the reason is stable only if the walk order is.
func (q *queue) bothPolls() {
	q.pollA()
	q.pollB()
}

func (q *queue) bothPollsUnderLock() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.bothPolls() // want `call to \(\*lockhold\.queue\)\.bothPolls while holding q.mu: it calls \(\*lockhold\.queue\)\.pollB which calls \(\*lockhold\.queue\)\.slowPoll which time.Sleep blocks`
}

// spawnUnderLock passes: the goroutine body does not block the locked
// path, and a deferred send runs after the unlock on the return edge.
func (q *queue) spawnUnderLock(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	go func() { q.ch <- v }()
	defer func() { q.ch <- v }()
}

// unlockedOps: every blocking class is fine with no lock held.
func (q *queue) unlockedOps(addr string, p []byte) {
	time.Sleep(time.Millisecond)
	q.ch <- 1
	<-q.ch
	q.conn.Write(p)
	net.Dial("tcp", addr)
}
