package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// Reseed is the self-healing half of divergence detection: where PR 4
// could only refuse a conflicting or hopelessly behind replica, the
// primary now ships it the newest checkpoint generation and the
// follower installs it atomically, resets its term ledger to the
// shipped history, and rejoins ordinary catch-up from the checkpoint's
// sequence. The transfer is resumable — the follower keeps the chunks
// it has and answers a repeated offer of the *same* snapshot with the
// byte offset it already holds — and fails safe: the incoming bytes
// live in a partial file that becomes the checkpoint only via a final
// whole-file checksum, a full checkpoint load, and an atomic rename, so no
// crash point leaves a half-installed snapshot recovery would trust.

// ErrReseedAborted reports a snapshot transfer that did not complete:
// the source had nothing shippable, the follower refused the offer,
// the connection died mid-stream, or the install failed. The partial
// transfer stays on the follower so the next session resumes from the
// last durable chunk instead of starting over.
var ErrReseedAborted = errors.New("replica: reseed aborted")

// ErrSnapshotCorrupt reports a shipped snapshot that failed its
// integrity checks on the follower: whole-file checksum mismatch, a
// checkpoint load failure at install time, or a file that says in-band
// it covers a different sequence than the one it was offered under.
// The partial is discarded — its bytes are not trustworthy as a resume
// prefix — and the next offer restarts the transfer from byte zero.
var ErrSnapshotCorrupt = errors.New("replica: shipped snapshot corrupt")

// SnapshotSource provides the primary's newest shippable state — the
// self-describing checkpoint file the serve pipeline rotates.
// serve.SnapshotSource implements it; the interface lives here so the
// dependency keeps pointing replica → serve.
type SnapshotSource interface {
	// NewestSnapshot returns the newest durable checkpoint generation:
	// the checkpoint file's raw bytes and the WAL sequence they cover.
	NewestSnapshot() (seq uint64, data []byte, err error)
}

// snapOffer is the SnapOffer frame's payload: everything the follower
// needs to judge, resume, verify and install the transfer. Total and
// CRC identify the exact snapshot (a resume against a different one
// restarts at zero), and Ledger is the primary's term ledger truncated
// to the snapshot — the follower's post-install ledger, replacing
// whatever conflicting history its own stamps described. The sequence
// the snapshot covers travels once, in the offer frame's Seq, and the
// shipped file must agree with it.
type snapOffer struct {
	Total  uint64
	CRC    uint32
	Ledger []TermBase
}

const (
	reseedPartialName = "reseed.partial"
	reseedMarkName    = "reseed.offer"

	reseedMarkMagic = 0x54445352 // "TDSR"
	reseedMarkSize  = 28         // magic u32 | seq u64 | total u64 | crc u32 | mark crc u32
)

func (o snapOffer) encode() []byte {
	buf := make([]byte, 0, 8+4+2+16*len(o.Ledger))
	buf = binary.LittleEndian.AppendUint64(buf, o.Total)
	buf = binary.LittleEndian.AppendUint32(buf, o.CRC)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(o.Ledger)))
	for _, e := range o.Ledger {
		buf = binary.LittleEndian.AppendUint64(buf, e.Term)
		buf = binary.LittleEndian.AppendUint64(buf, e.Base)
	}
	return buf
}

// decodeSnapOffer validates and decodes an offer payload. Malformed
// payloads fail with a *FrameError wrapping ErrBadFrame, exactly like
// the frame codec itself, and a valid decode re-encodes byte-identical
// (the fuzz harness pins both properties).
func decodeSnapOffer(payload []byte) (snapOffer, error) {
	bad := func(reason string, args ...any) (snapOffer, error) {
		return snapOffer{}, &FrameError{Reason: "snap offer",
			Err: fmt.Errorf("%w: "+reason, append([]any{ErrBadFrame}, args...)...)}
	}
	if len(payload) < 8+4+2 {
		return bad("offer truncated at %d bytes", len(payload))
	}
	o := snapOffer{
		Total: binary.LittleEndian.Uint64(payload[0:8]),
		CRC:   binary.LittleEndian.Uint32(payload[8:12]),
	}
	n := int(binary.LittleEndian.Uint16(payload[12:14]))
	rest := payload[14:]
	if n > maxLedgerEntries {
		return bad("implausible ledger length %d", n)
	}
	if len(rest) != 16*n {
		return bad("ledger length %d does not hold %d entries", len(rest), n)
	}
	for i := 0; i < n; i++ {
		o.Ledger = append(o.Ledger, TermBase{
			Term: binary.LittleEndian.Uint64(rest[16*i : 16*i+8]),
			Base: binary.LittleEndian.Uint64(rest[16*i+8 : 16*i+16]),
		})
	}
	return o, nil
}

// ledgerPrefix returns the entries describing records up to and
// including seq — the history the snapshot actually covers. Entries
// based past the snapshot describe records the follower will receive
// (and stamp) through ordinary catch-up.
func ledgerPrefix(ledger []TermBase, seq uint64) []TermBase {
	var out []TermBase
	for _, e := range ledger {
		if e.Base <= seq {
			out = append(out, e)
		}
	}
	return out
}

// --- primary side -----------------------------------------------------

// reseed ships the newest checkpoint to fc and returns the sequence
// the follower installed, leaving fc.acked there so ordinary catch-up
// continues from the snapshot. The transfer resumes where a previous
// one of the same snapshot left off: the follower answers the offer
// with the byte offset it already holds, and every chunk ack advances
// the resume point, so a connection drop costs only the chunk in
// flight.
func (p *Primary) reseed(fc *followerConn) (uint64, error) {
	seq, data, err := p.cfg.Snapshots.NewestSnapshot()
	if err != nil {
		return 0, p.abortReseed(fmt.Errorf("%w: no shippable checkpoint: %w", ErrReseedAborted, err))
	}
	offer := snapOffer{
		Total:  uint64(len(data)),
		CRC:    crc32.ChecksumIEEE(data),
		Ledger: ledgerPrefix(p.state.Ledger, seq),
	}
	// Pin retention while the transfer is (possibly) in flight: an
	// interrupted follower resumes tailing at seq+1, and truncating
	// that away would force a second full transfer.
	p.pendingShip, p.pendingShipSet = seq, true
	if err := p.writeFrame(fc, Frame{Type: FrameSnapOffer, Term: p.cfg.Term, Seq: seq, Payload: offer.encode()}); err != nil {
		return 0, p.abortReseed(fmt.Errorf("%w: offering snapshot: %w", ErrReseedAborted, err))
	}
	p.col.Inc(stats.CtrReplReseedOffers)
	f, err := p.readFrame(fc)
	if err != nil {
		return 0, p.abortReseed(fmt.Errorf("%w: awaiting offer answer: %w", ErrReseedAborted, err))
	}
	switch f.Type {
	case FrameAck:
		// f.Seq is the resume offset the follower already holds.
	case FrameReject:
		if f.Term > p.cfg.Term {
			return 0, p.abortReseed(fmt.Errorf("%w: follower moved to term %d, ours is %d", ErrStaleTerm, f.Term, p.cfg.Term))
		}
		return 0, p.abortReseed(fmt.Errorf("%w: follower refused the offer at its seq %d", ErrReseedAborted, f.Seq))
	default:
		return 0, p.abortReseed(&FrameError{Reason: "offer answer",
			Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, f.Type)})
	}
	off := f.Seq
	if off > offer.Total {
		return 0, p.abortReseed(fmt.Errorf("%w: follower claims %d of %d bytes", ErrReseedAborted, off, offer.Total))
	}
	if off > 0 {
		p.col.Inc(stats.CtrReplReseedResumes)
		p.cfg.OnEvent(fmt.Sprintf("%s resumes snapshot seq %d at byte %d of %d", fc.name, seq, off, offer.Total))
	}

	chunk := uint64(p.cfg.SnapChunkBytes)
	for off < offer.Total {
		n := chunk
		if off+n > offer.Total {
			n = offer.Total - off
		}
		if err := p.writeFrame(fc, Frame{Type: FrameSnapChunk, Term: p.cfg.Term, Seq: off, Payload: data[off : off+n]}); err != nil {
			return 0, p.abortReseed(fmt.Errorf("%w: shipping chunk at byte %d: %w", ErrReseedAborted, off, err))
		}
		p.col.Inc(stats.CtrReplReseedChunks)
		ack, err := p.readFrame(fc)
		if err != nil {
			return 0, p.abortReseed(fmt.Errorf("%w: awaiting chunk ack at byte %d: %w", ErrReseedAborted, off, err))
		}
		if ack.Type != FrameAck || ack.Seq <= off || ack.Seq > offer.Total {
			return 0, p.abortReseed(fmt.Errorf("%w: bad chunk ack (type %d, offset %d)", ErrReseedAborted, ack.Type, ack.Seq))
		}
		off = ack.Seq
	}

	if err := p.writeFrame(fc, Frame{Type: FrameSnapDone, Term: p.cfg.Term, Seq: seq}); err != nil {
		return 0, p.abortReseed(fmt.Errorf("%w: finishing transfer: %w", ErrReseedAborted, err))
	}
	f, err = p.readFrame(fc)
	if err != nil {
		return 0, p.abortReseed(fmt.Errorf("%w: awaiting install ack: %w", ErrReseedAborted, err))
	}
	if f.Type != FrameAck || f.Seq != seq {
		return 0, p.abortReseed(fmt.Errorf("%w: follower failed to install (type %d, seq %d)", ErrReseedAborted, f.Type, f.Seq))
	}
	fc.acked = seq
	p.pendingShipSet = false
	p.cfg.OnEvent(fmt.Sprintf("%s reseeded to seq %d (%d bytes)", fc.name, seq, offer.Total))
	return seq, nil
}

// abortReseed counts a failed transfer and passes the cause through.
func (p *Primary) abortReseed(err error) error {
	p.col.Inc(stats.CtrReplReseedAborts)
	return err
}

// RetainFloor implements serve.RetentionAdvisor: the highest sequence
// WAL retention may truncate through without orphaning replication.
// It is the minimum over every live follower's acknowledged sequence
// — each still tails the log from acked+1 — and the covered sequence
// of any snapshot transfer still in flight, whose follower resumes
// tailing at that point after installing. With no live followers and
// no pending transfer there is no replication constraint (ok=false)
// and local checkpoint generations alone bound retention, exactly the
// solo behavior. A follower that rejoins from below the floor anyway
// (it was dead when retention advanced) is reseeded, not refused.
func (p *Primary) RetainFloor() (uint64, bool) {
	floor, ok := uint64(0), false
	for _, fc := range p.followers {
		if fc.dead {
			continue
		}
		if !ok || fc.acked < floor {
			floor, ok = fc.acked, true
		}
	}
	if p.pendingShipSet && (!ok || p.pendingShip < floor) {
		floor, ok = p.pendingShip, true
	}
	return floor, ok
}

// --- follower side ----------------------------------------------------

// receiveSnapshot runs the follower half of a transfer that the offer
// frame just opened: answer with the resume offset, stream chunks into
// the partial file (fsynced per chunk, so the acked offset survives a
// crash), then verify, install and ack — or reject, keeping the
// partial for resumption unless its bytes proved corrupt.
func (f *Follower) receiveSnapshot(conn net.Conn, fr Frame) error {
	reject := func() {
		WriteFrame(conn, Frame{Type: FrameReject, Term: f.state.Term, Seq: f.pipe.Seq()})
	}
	offer, err := decodeSnapOffer(fr.Payload)
	if err != nil {
		reject()
		return err
	}
	if !f.pipe.CanInstallSnapshot() {
		f.col.Inc(stats.CtrReplReseedAborts)
		f.cfg.OnEvent("refused snapshot offer: no checkpoint path to install into")
		reject()
		return fmt.Errorf("%w: follower has no checkpoint path to install into", ErrReseedAborted)
	}

	// Resume only a partial of this exact snapshot; anything else —
	// no partial, a different snapshot, an unreadable mark — restarts
	// from zero. The prefix is rewritten through the same FS seam the
	// chunks use, so its durability accounting stays honest.
	partialPath := f.dir + "/" + reseedPartialName
	prefix := f.loadPartial(fr.Seq, offer)
	if len(prefix) > 0 {
		f.col.Inc(stats.CtrReplReseedResumes)
		f.cfg.OnEvent(fmt.Sprintf("resuming snapshot seq %d at byte %d of %d", fr.Seq, len(prefix), offer.Total))
	}
	if err := f.writeReseedMark(fr.Seq, offer); err != nil {
		reject()
		return fmt.Errorf("%w: persisting transfer mark: %w", ErrReseedAborted, err)
	}
	file, err := f.fs.Create(partialPath)
	if err != nil {
		reject()
		return fmt.Errorf("%w: creating partial: %w", ErrReseedAborted, err)
	}
	have := uint64(0)
	if len(prefix) > 0 {
		if _, err := file.Write(prefix); err != nil {
			file.Close()
			reject()
			return fmt.Errorf("%w: rewriting resumed prefix: %w", ErrReseedAborted, err)
		}
		have = uint64(len(prefix))
	}
	if err := file.Sync(); err != nil {
		file.Close()
		reject()
		return fmt.Errorf("%w: syncing partial: %w", ErrReseedAborted, err)
	}
	if err := WriteFrame(conn, Frame{Type: FrameAck, Term: f.state.Term, Seq: have}); err != nil {
		file.Close()
		return err
	}

	for {
		cf, err := ReadFrame(conn)
		if err != nil {
			// Connection died mid-transfer (a killed primary, say). The
			// partial and its mark stay: the next offer of this snapshot
			// resumes at the last fsynced byte.
			file.Close()
			f.col.Inc(stats.CtrReplReseedAborts)
			return fmt.Errorf("%w: transfer interrupted at byte %d: %w", ErrReseedAborted, have, err)
		}
		switch cf.Type {
		case FrameSnapChunk:
			if cf.Seq != have || have+uint64(len(cf.Payload)) > offer.Total {
				file.Close()
				f.col.Inc(stats.CtrReplReseedAborts)
				reject()
				return fmt.Errorf("%w: chunk at byte %d does not continue byte %d", ErrReseedAborted, cf.Seq, have)
			}
			if _, err := file.Write(cf.Payload); err != nil {
				file.Close()
				f.col.Inc(stats.CtrReplReseedAborts)
				reject()
				return fmt.Errorf("%w: writing chunk at byte %d: %w", ErrReseedAborted, have, err)
			}
			// Durable before acked: the resume offset this ack promises
			// must survive a follower crash.
			if err := file.Sync(); err != nil {
				file.Close()
				f.col.Inc(stats.CtrReplReseedAborts)
				reject()
				return fmt.Errorf("%w: syncing chunk at byte %d: %w", ErrReseedAborted, have, err)
			}
			have += uint64(len(cf.Payload))
			f.col.Inc(stats.CtrReplReseedChunks)
			if err := WriteFrame(conn, Frame{Type: FrameAck, Term: f.state.Term, Seq: have}); err != nil {
				file.Close()
				return err
			}
		case FrameSnapDone:
			if err := file.Close(); err != nil {
				f.col.Inc(stats.CtrReplReseedAborts)
				reject()
				return fmt.Errorf("%w: closing partial: %w", ErrReseedAborted, err)
			}
			if have != offer.Total || cf.Seq != fr.Seq {
				f.col.Inc(stats.CtrReplReseedAborts)
				reject()
				return fmt.Errorf("%w: transfer of seq %d ended at byte %d of %d for seq %d", ErrReseedAborted, fr.Seq, have, offer.Total, cf.Seq)
			}
			return f.installSnapshot(conn, fr.Seq, offer, partialPath)
		default:
			file.Close()
			f.col.Inc(stats.CtrReplReseedAborts)
			return &FrameError{Reason: "snapshot transfer",
				Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, cf.Type)}
		}
	}
}

// installSnapshot verifies the completed partial and makes it this
// follower's entire durable state: whole-file checksum, full load with
// the file's in-band sequence checked against the offered seq, WAL
// reset, atomic checkpoint install, and a term ledger rewritten to the
// shipped history — then, and only then, the ack. Corrupt or
// mislabelled bytes discard the partial (no resume from poison) and
// reject the transfer.
func (f *Follower) installSnapshot(conn net.Conn, seq uint64, offer snapOffer, partialPath string) error {
	reject := func() {
		WriteFrame(conn, Frame{Type: FrameReject, Term: f.state.Term, Seq: f.pipe.Seq()})
	}
	discard := func() {
		f.fs.Remove(partialPath)
		f.fs.Remove(f.dir + "/" + reseedMarkName)
		f.fs.SyncDir(f.dir)
	}
	sum, err := f.checksumPartial(partialPath)
	if err != nil {
		f.col.Inc(stats.CtrReplReseedAborts)
		reject()
		return fmt.Errorf("%w: reading back partial: %w", ErrReseedAborted, err)
	}
	if sum != offer.CRC {
		discard()
		f.col.Inc(stats.CtrReplReseedAborts)
		f.cfg.OnEvent(fmt.Sprintf("discarded snapshot seq %d: checksum mismatch", seq))
		reject()
		return fmt.Errorf("%w: whole-file checksum mismatch (stored %08x, computed %08x)", ErrSnapshotCorrupt, offer.CRC, sum)
	}
	if err := f.pipe.InstallSnapshot(partialPath, seq); err != nil {
		discard()
		f.col.Inc(stats.CtrReplReseedAborts)
		f.cfg.OnEvent(fmt.Sprintf("discarded snapshot seq %d: install failed: %v", seq, err))
		reject()
		return fmt.Errorf("%w: install: %w", ErrSnapshotCorrupt, err)
	}
	// The shipped ledger replaces ours: the snapshot's history is now
	// our entire history, and our old stamps described records the
	// reset WAL no longer holds. Durable before the ack, like every
	// other ledger write.
	adopted := TermState{Term: f.Term(), Ledger: append([]TermBase(nil), offer.Ledger...)}
	if err := SaveTermState(f.fs, f.dir, adopted); err != nil {
		return fmt.Errorf("%w: resetting term ledger: %w", ErrReseedAborted, err)
	}
	f.setState(adopted)
	f.fs.Remove(f.dir + "/" + reseedMarkName) // the partial is already renamed away
	f.fs.SyncDir(f.dir)
	f.col.Inc(stats.CtrReplReseedInstalls)
	f.cfg.OnEvent(fmt.Sprintf("installed snapshot at seq %d (%d bytes)", seq, offer.Total))
	return WriteFrame(conn, Frame{Type: FrameAck, Term: adopted.Term, Seq: seq})
}

// loadPartial returns the bytes of a resumable partial transfer: the
// stored mark must describe exactly the offered snapshot and the
// partial must not exceed it. Any doubt means restart from zero.
func (f *Follower) loadPartial(seq uint64, offer snapOffer) []byte {
	mark, err := readAllFile(f.fs, f.dir+"/"+reseedMarkName)
	if err != nil {
		return nil
	}
	mseq, mtotal, mcrc, ok := decodeReseedMark(mark)
	if !ok || mseq != seq || mtotal != offer.Total || mcrc != offer.CRC {
		return nil
	}
	data, err := readAllFile(f.fs, f.dir+"/"+reseedPartialName)
	if err != nil || uint64(len(data)) > offer.Total {
		return nil
	}
	return data
}

// writeReseedMark durably records which snapshot the partial belongs
// to, so a transfer interrupted by a crash resumes only against the
// same bytes.
func (f *Follower) writeReseedMark(seq uint64, offer snapOffer) error {
	buf := make([]byte, 0, reseedMarkSize)
	buf = binary.LittleEndian.AppendUint32(buf, reseedMarkMagic)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, offer.Total)
	buf = binary.LittleEndian.AppendUint32(buf, offer.CRC)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	file, err := f.fs.Create(f.dir + "/" + reseedMarkName)
	if err != nil {
		return err
	}
	if _, err := file.Write(buf); err != nil {
		file.Close()
		return err
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func decodeReseedMark(data []byte) (seq, total uint64, crc uint32, ok bool) {
	if len(data) != reseedMarkSize {
		return 0, 0, 0, false
	}
	if crc32.ChecksumIEEE(data[:24]) != binary.LittleEndian.Uint32(data[24:28]) {
		return 0, 0, 0, false
	}
	if binary.LittleEndian.Uint32(data[0:4]) != reseedMarkMagic {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(data[4:12]),
		binary.LittleEndian.Uint64(data[12:20]),
		binary.LittleEndian.Uint32(data[20:24]), true
}

// checksumPartial reads the partial back through the FS seam (what
// actually reached the file, not what we think we wrote) and returns
// its whole-file CRC.
func (f *Follower) checksumPartial(path string) (uint32, error) {
	rd, err := f.fs.Open(path)
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, rd); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

func readAllFile(fs wal.FS, path string) ([]byte, error) {
	rd, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	return io.ReadAll(rd)
}
