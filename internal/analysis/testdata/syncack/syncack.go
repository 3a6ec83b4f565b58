// Golden input for the syncack check. The harness type-checks this
// file under the internal/replica import path, placing it in the
// durability package set. The stubs mirror the shapes the check keys
// on: Append/Sync on a log, WriteFrame with FrameAck/FrameWelcome.
package synctest

type log struct{}

func (l *log) Append(seq uint64, b []byte) error          { return nil }
func (l *log) AppendGroup(first uint64, g [][]byte) error { return nil }
func (l *log) Sync() error                                { return nil }

type pipe struct{}

func (p *pipe) IngestReplicated(seq uint64, b []byte) error { return nil }

// Frame mirrors the wire frame the real package ships.
type Frame struct {
	Type int
	Seq  uint64
}

const (
	FrameAck     = 1
	FrameWelcome = 2
)

func WriteFrame(conn any, f any) error { return nil }

func writeFrameRun(conn any, f any, n int) error { return nil }

func ackAfterBareAppend(l *log, conn any) error {
	if err := l.Append(1, nil); err != nil {
		return err
	}
	return WriteFrame(conn, Frame{Type: FrameAck, Seq: 1}) // want `FrameAck frame write written after an append`
}

func welcomeAfterBareAppend(l *log, conn any) error {
	if err := l.Append(1, nil); err != nil {
		return err
	}
	return WriteFrame(conn, &Frame{Type: FrameWelcome, Seq: 1}) // want `FrameWelcome frame write written after an append`
}

func groupAcksAfterBareGroupAppend(l *log, conn any) error {
	if err := l.AppendGroup(1, nil); err != nil {
		return err
	}
	return writeFrameRun(conn, Frame{Type: FrameAck, Seq: 1}, 3) // want `FrameAck frame write written after an append`
}

func groupAcksAfterSync(l *log, conn any) error {
	if err := l.AppendGroup(1, nil); err != nil {
		return err
	}
	if err := l.Sync(); err != nil {
		return err
	}
	return writeFrameRun(conn, Frame{Type: FrameAck, Seq: 1}, 3)
}

func ackAfterSync(l *log, conn any) error {
	if err := l.Append(1, nil); err != nil {
		return err
	}
	if err := l.Sync(); err != nil {
		return err
	}
	return WriteFrame(conn, Frame{Type: FrameAck, Seq: 1})
}

func ackAfterIngest(p *pipe, conn any) error {
	if err := p.IngestReplicated(1, nil); err != nil {
		return err
	}
	return WriteFrame(conn, Frame{Type: FrameAck, Seq: 1})
}

func dupReack(conn any) error {
	// No append in this function: the dup-re-ack path is clean.
	return WriteFrame(conn, Frame{Type: FrameAck, Seq: 1})
}

func rejectAfterAppend(l *log, conn any) error {
	if err := l.Append(1, nil); err != nil {
		return err
	}
	// Rejects are not acknowledgements; only Ack/Welcome are gated.
	return WriteFrame(conn, Frame{Type: 3, Seq: 1})
}

func suppressedAck(l *log, conn any) error {
	if err := l.Append(1, nil); err != nil {
		return err
	}
	//tdgraph:allow syncack golden test for the suppression path
	return WriteFrame(conn, Frame{Type: FrameAck, Seq: 1})
}
