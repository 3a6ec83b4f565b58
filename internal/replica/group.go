package replica

import (
	"bufio"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// groupReadAhead sizes a client session's read buffer and with it the
// commit group: whatever submits are already complete in it behind the
// one being served ride along in that one's WAL barrier and quorum round.
// Nothing ever waits for a group to fill, so this is a cap, not a tuning
// knob.
const groupReadAhead = 64 << 10

// commitGroup is the memory one session gathers commit groups in, reused
// round after round: the records' payloads and the batches decoded from
// them, in sequence order. Nothing downstream may keep a reference into
// it past the round.
type commitGroup struct {
	payloads [][]byte
	batches  [][]graph.Update
	updates  []graph.Update // arena: the decoded batches, back to back
	bytes    []byte         // arena: payloads copied out of a frame buffer about to be reused
}

// reset empties the group, letting go of a byte arena a huge record grew
// (wal.AppendBatch does the same for the update arena).
func (g *commitGroup) reset() {
	if cap(g.bytes) > wal.MaxRetainedBuffer {
		g.bytes = nil
	}
	g.payloads, g.batches, g.updates, g.bytes = g.payloads[:0], g.batches[:0], g.updates[:0], g.bytes[:0]
}

// add decodes payload behind the batches already gathered and takes both
// into the group; keep first copies the payload into the group's own
// arena, for a caller whose frame buffer the next read overwrites. A
// payload that does not decode leaves the group as it was.
//
//tdgraph:hot
func (g *commitGroup) add(payload []byte, keep bool) error {
	at := len(g.updates)
	updates, err := wal.AppendBatch(g.updates, payload)
	if err != nil {
		return err
	}
	if keep {
		from := len(g.bytes)
		g.bytes = append(g.bytes, payload...)
		payload = g.bytes[from:len(g.bytes):len(g.bytes)]
	}
	g.updates = updates
	g.payloads = append(g.payloads, payload)
	g.batches = append(g.batches, updates[at:len(updates):len(updates)])
	return nil
}

// gatherSubmits takes into g every further Submit that is already
// complete in br's buffer and continues head — the next sequence, and the
// head's deadline budget, so the group has one deadline — and returns how
// many buffered bytes they span. Nothing is consumed and nothing is
// waited for: the first frame that is anything else (or not all there
// yet, or damaged) stays unread with everything behind it, to be met by
// the blocking read after the commit, and the caller discards the span
// only once the group has been answered.
//
//tdgraph:hot
func gatherSubmits(g *commitGroup, br *bufio.Reader, head Frame) (span int) {
	buffered, _ := br.Peek(br.Buffered())
	for next := head.Seq + 1; ; next++ {
		fr, n := parseFrame(buffered[span:])
		if n == 0 || fr.Type != FrameSubmit || fr.Seq != next || fr.Orig != head.Orig || g.add(fr.Payload, false) != nil {
			return span
		}
		span += n
	}
}
