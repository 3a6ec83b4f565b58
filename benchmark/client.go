package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// The benchmark speaks the client protocol itself, from the exported
// frame codec: replica.Client.Run has no per-batch hook and drops its
// connection on return, so it cannot be timed per batch from outside.

// replyTimeout bounds one wait for the leader's answer. It only turns a
// hang into an error; the slowest legitimate ack (an inline checkpoint
// on every member) is a couple of seconds.
const replyTimeout = 30 * time.Second

// frameHeaderBytes is the replica wire header: magic u32 | type u8 |
// term u64 | seq u64 | orig u64 | payload-length u32 | crc u32.
const frameHeaderBytes = 37

// client is one ingestion session on one connection: the single
// upstream feeder the serve layer's single-writer contract assumes.
type client struct {
	conn net.Conn
	term uint64
	next uint64 // sequence of the next batch to submit
}

// connect opens a session with whichever member leads: ClientHello to
// the first name, following redirect rejects to the hinted leader.
func connect(dial func(name string) (net.Conn, error), first string) (*client, error) {
	name := first
	for hop := 0; hop < 4; hop++ {
		conn, err := dial(name)
		if err != nil {
			return nil, err
		}
		if err := replica.WriteFrame(conn, replica.Frame{Type: replica.FrameClientHello}); err != nil {
			conn.Close()
			return nil, err
		}
		conn.SetReadDeadline(time.Now().Add(replyTimeout))
		fr, err := replica.ReadFrame(conn)
		if err != nil {
			conn.Close()
			return nil, err
		}
		switch {
		case fr.Type == replica.FrameWelcome:
			return &client{conn: conn, term: fr.Term, next: fr.Seq + 1}, nil
		case fr.Type == replica.FrameReject && fr.Orig == 0 && len(fr.Payload) > 0:
			conn.Close()
			name = string(fr.Payload) // redirect to the hinted leader
		default:
			conn.Close()
			return nil, fmt.Errorf("benchmark: %s answered the hello with frame type %d", name, fr.Type)
		}
	}
	return nil, errors.New("benchmark: redirect chain did not reach a leader")
}

func (c *client) close() { c.conn.Close() }

// ack is one completed submit as the client saw it.
type ack struct {
	Seq    uint64
	Start  time.Time // just before wal.EncodeBatch
	Sent   time.Time // the Submit frame is written
	End    time.Time // the Ack frame is read
	Encode time.Duration
	Bytes  int // Submit frame bytes on the wire
}

// submitResult accounts for one closed-loop run of submits.
type submitResult struct {
	Acks      []ack
	Attempted int // submits written
	Failed    int // submits that ended in a reject, an error or a timeout
}

// submit drives the batches through the session in a closed loop: at
// most window submits are outstanding on the connection, and the next
// is written only when an ack frees a slot. A batch's latency runs from
// just before its encoding to its Ack frame read. Any answer other than
// the in-order Ack — a busy reject is a refusal, a redirect means
// leadership moved — fails that submit and everything still in flight,
// and ends the run: the single writer cannot skip a sequence.
func (c *client) submit(batches [][]graph.Update, window int) (submitResult, error) {
	res := submitResult{Acks: make([]ack, 0, len(batches))}
	inflight := make([]ack, 0, window)
	fail := func(err error) (submitResult, error) {
		res.Failed += len(inflight)
		return res, err
	}
	sent := 0
	for len(res.Acks) < len(batches) {
		for sent < len(batches) && len(inflight) < window {
			a := ack{Seq: c.next, Start: time.Now()}
			payload := wal.EncodeBatch(batches[sent])
			encoded := time.Now()
			a.Encode = encoded.Sub(a.Start)
			a.Bytes = frameHeaderBytes + len(payload)
			res.Attempted++
			inflight = append(inflight, a)
			if err := replica.WriteFrame(c.conn, replica.Frame{
				Type: replica.FrameSubmit, Term: c.term, Seq: a.Seq, Payload: payload,
			}); err != nil {
				return fail(err)
			}
			inflight[len(inflight)-1].Sent = time.Now()
			c.next++
			sent++
		}
		c.conn.SetReadDeadline(time.Now().Add(replyTimeout))
		fr, err := replica.ReadFrame(c.conn)
		if err != nil {
			return fail(err)
		}
		head := inflight[0]
		switch {
		case fr.Type == replica.FrameAck && fr.Seq == head.Seq:
			head.End = time.Now()
			res.Acks = append(res.Acks, head)
			inflight = inflight[:copy(inflight, inflight[1:])]
		case fr.Type == replica.FrameReject && fr.Orig > 0:
			return fail(fmt.Errorf("benchmark: leader refused seq %d as busy (%s)", head.Seq, fr.Payload))
		case fr.Type == replica.FrameReject:
			return fail(fmt.Errorf("benchmark: leadership moved at seq %d (now %q)", head.Seq, fr.Payload))
		default:
			return fail(fmt.Errorf("benchmark: frame type %d seq %d answered the submit of seq %d", fr.Type, fr.Seq, head.Seq))
		}
	}
	return res, nil
}
