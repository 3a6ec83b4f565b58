package replica

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestDivergedFollowerRejected is the regression for silent log
// divergence: a replica holding an unacknowledged tail the promoted
// log never had (the classic deposed-primary-restarted-as-follower
// shape) must be refused at the handshake with ErrFollowerDiverged —
// on both detection paths: its seq is ahead of the new primary's log
// end, and, once the new primary has written past that seq, its tail
// stamp names an origin term the primary's ledger contradicts. It must
// never be attached or counted toward quorum, and must itself learn it
// was refused. A reseeded replica in its place attaches fine.
func TestDivergedFollowerRejected(t *testing.T) {
	w := testWorkload(t, 8)

	pdir := t.TempDir()
	pcfg := nodeConfig(w, pdir)
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}
	prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 3, WAL: pcfg.WAL})

	mk := func(dir string) *Follower {
		cfg := nodeConfig(w, dir)
		cfg.CheckpointEvery = -1
		fl, err := NewFollower(FollowerConfig{Pipeline: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	fa := mk(t.TempDir())
	fb := mk(t.TempDir())
	na := attach(t, prim, fa, nil)
	// B attaches by hand so the test holds its primary-side conn and
	// can sever it mid-stream.
	psideB, fsideB := net.Pipe()
	nbDone := make(chan error, 1)
	go func() { nbDone <- fb.Serve(fsideB) }()
	if err := prim.AddFollower(psideB); err != nil {
		t.Fatal(err)
	}

	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetRetentionAdvisor(prim)
	// Two batches reach everyone; then B's transport dies and batch 3
	// lands only on the primary and A (still quorum, 2 of 3). A now
	// holds a seq-3 record B never saw.
	for _, b := range w.Batches[:2] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	psideB.Close()
	<-nbDone
	if err := ingest(prim, pipe, w.Batches[2]); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	prim.Close()
	<-na.done

	// The primary's machine is lost, and failover promotes B — NOT the
	// most-advanced follower, which is exactly the mistake (or the
	// deposed-primary WAL-replay resurrection it models) divergence
	// detection must catch: A's seq-3 record is w.Batches[2], but the
	// promoted log's seq 3 will be w.Batches[3].
	newTerm, err := fb.PromoteTo(fb.Term() + 1)
	if err != nil {
		t.Fatal(err)
	}
	if newTerm != 2 {
		t.Fatalf("promoted to term %d, want 2", newTerm)
	}

	col := stats.NewCollector()
	np := NewPrimary(PrimaryConfig{
		Term: newTerm, ClusterSize: 1,
		WAL:       fb.cfg.Pipeline.WAL,
		Collector: col,
	})

	// Path 1 — ahead of the promoted log end (B is at seq 2, A at 3).
	psideA, fsideA := net.Pipe()
	sessA := make(chan error, 1)
	go func() { sessA <- fa.Serve(fsideA) }()
	err = np.AddFollower(psideA)
	if !errors.Is(err, ErrFollowerDiverged) {
		t.Fatalf("ahead rejoin: want ErrFollowerDiverged, got %v", err)
	}
	if serr := <-sessA; !errors.Is(serr, ErrFollowerDiverged) {
		t.Fatalf("ahead rejoin follower session: want ErrFollowerDiverged, got %v", serr)
	}
	psideA.Close()
	if np.HasLive("follower-0") {
		t.Fatal("diverged follower was attached")
	}

	// The promoted primary serves on alone: its seq 3 and 4 are new
	// records created under term 2.
	for _, b := range w.Batches[3:5] {
		if err := fb.Pipeline().Ingest(b); err != nil {
			t.Fatal(err)
		}
	}

	// Path 2 — the next generation (probe max + 1 = term 3) has written
	// past A's seq, so the tail stamp is what convicts A now: its seq-3
	// record originates at term 1, the promoted ledger says seq 3 is
	// term 2's. First check the probe itself: state, and no adoption.
	psideP, fsideP := net.Pipe()
	probeDone := make(chan error, 1)
	go func() { probeDone <- fa.Serve(fsideP) }()
	probed, err := Probe(psideP, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	probedTerm, probedSeq := probed.Term, probed.Seq
	if probedTerm != 2 || probedSeq != 3 {
		t.Fatalf("probe = term %d seq %d, want term 2 seq 3", probedTerm, probedSeq)
	}
	// End the probe session before touching fa again: Serve holds the
	// follower's lock until its conn dies.
	psideP.Close()
	<-probeDone
	if fa.Term() != 2 {
		t.Fatalf("probe adopted a term: follower at %d, want 2", fa.Term())
	}

	if _, err := ClaimTerm(fb.cfg.Pipeline.WAL, probedTerm+1); err != nil {
		t.Fatal(err)
	}
	np2 := NewPrimary(PrimaryConfig{
		Term: probedTerm + 1, ClusterSize: 1,
		WAL:       fb.cfg.Pipeline.WAL,
		Collector: col,
	})
	psideA2, fsideA2 := net.Pipe()
	sessA2 := make(chan error, 1)
	go func() { sessA2 <- fa.Serve(fsideA2) }()
	err = np2.AddFollower(psideA2)
	if !errors.Is(err, ErrFollowerDiverged) {
		t.Fatalf("stamp-conflict rejoin: want ErrFollowerDiverged, got %v", err)
	}
	if serr := <-sessA2; !errors.Is(serr, ErrFollowerDiverged) {
		t.Fatalf("stamp-conflict follower session: want ErrFollowerDiverged, got %v", serr)
	}
	psideA2.Close()
	if got := col.Get(stats.CtrReplDivergedRejects); got != 2 {
		t.Fatalf("diverged-reject counter = %d, want 2", got)
	}

	// A reseeded (empty) replica in A's place attaches fine and catches
	// up across all three origin terms of the promoted history.
	fc := mk(t.TempDir())
	nc := attach(t, np2, fc, nil)
	fb.Pipeline().SetRetentionAdvisor(np2)
	if err := ingest(np2, fb.Pipeline(), w.Batches[5]); err != nil {
		t.Fatal(err)
	}
	np2.Close()
	<-nc.done
	if fc.Seq() != fb.Seq() {
		t.Fatalf("reseeded follower at seq %d, promoted log at %d", fc.Seq(), fb.Seq())
	}
	if !statesEqual(fc.Pipeline().Session().States(), fb.Pipeline().Session().States()) {
		t.Fatal("reseeded follower states diverged from the promoted log")
	}

	fa.Pipeline().Close()
	fb.Pipeline().Close()
	fc.Pipeline().Close()
	np.Close()
}

// TestStalledFollowerDropped: a follower that stays connected but
// stops draining its socket must not block Replicate past the ack
// timeout — the primary's writes carry the same deadline its reads do,
// and a timed-out write drops the follower like a missed ack would.
func TestStalledFollowerDropped(t *testing.T) {
	w := testWorkload(t, 2)
	pcfg := nodeConfig(w, t.TempDir())

	pside, fside := net.Pipe()
	// Handshake by hand, then never touch the conn again: net.Pipe is
	// unbuffered, so every later write into it blocks until read —
	// forever, without a write deadline.
	go func() {
		if f, err := ReadFrame(fside); err != nil || f.Type != FrameHello {
			return
		}
		WriteFrame(fside, Frame{Type: FrameWelcome, Term: 1, Seq: 0})
	}()

	prim := NewPrimary(PrimaryConfig{
		Term: 1, ClusterSize: 1,
		WAL:        pcfg.WAL,
		AckTimeout: 150 * time.Millisecond,
	})
	if err := prim.AddFollower(pside); err != nil {
		t.Fatalf("AddFollower: %v", err)
	}

	// Real time: the subject is AckTimeout as a wall-clock conn deadline.
	start := time.Now()
	if err := prim.Replicate(1, w.Batches[0]); err != nil {
		t.Fatalf("Replicate with quorum 1: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Replicate blocked %s on a stalled follower", elapsed)
	}
	if prim.HasLive("follower-0") {
		t.Fatal("stalled follower still attached")
	}
	prim.Close()
}

// TestTermStateDurability pins the term-file contract: ledger round
// trip (an empty ledger too), At semantics, Stamp superseding a crashed
// claim, and — the regressions — that a disk failing with real I/O
// errors, a bit-flipped file, or a directory left in the retired
// two-slot layout is an error instead of a forged zero term (which
// would un-fence a deposed primary), while genuinely absent state
// still loads as zero. Neither the term file nor its temp parses as a
// WAL segment.
func TestTermStateDurability(t *testing.T) {
	dir := t.TempDir()
	fs := wal.OSFS{}

	want := TermState{Term: 7, Ledger: []TermBase{{Term: 2, Base: 1}, {Term: 7, Base: 40}}}
	if err := SaveTermState(fs, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTermState(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Term != 7 || len(got.Ledger) != 2 || got.Ledger[1] != (TermBase{Term: 7, Base: 40}) {
		t.Fatalf("round trip: %+v", got)
	}
	for seq, wantTerm := range map[uint64]uint64{0: 0, 1: 2, 39: 2, 40: 7, 1000: 7} {
		if at := got.At(seq); at != wantTerm {
			t.Errorf("At(%d) = %d, want %d", seq, at, wantTerm)
		}
	}

	// Missing state is a legitimate zero state; a term adopted before
	// any record has an empty ledger and must survive as well.
	fresh := t.TempDir()
	if s, err := LoadTermState(fs, fresh); err != nil || s.Term != 0 {
		t.Fatalf("empty dir: state %+v, err %v", s, err)
	}
	if err := SaveTermState(fs, fresh, TermState{Term: 3}); err != nil {
		t.Fatal(err)
	}
	if s, err := LoadTermState(fs, fresh); err != nil || s.Term != 3 || len(s.Ledger) != 0 {
		t.Fatalf("empty ledger: state %+v, err %v", s, err)
	}

	// A replace is atomic, so a bad CRC is corruption, not a torn write.
	// Nor may the term file or its temp parse as a WAL segment, and the
	// retired layout alone is refused, never read as term 0.
	path, retired := filepath.Join(fresh, termFileName), t.TempDir()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[6] ^= 1
	for _, name := range []string{path, path + ".tmp", filepath.Join(retired, "term.b")} {
		if err := os.WriteFile(name, raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if s, err := LoadTermState(fs, fresh); err == nil {
		t.Fatalf("bit-flipped term file loaded as %+v", s)
	}
	if start, err := wal.StartSeq(wal.Options{Dir: fresh}); err != nil || start != 0 {
		t.Fatalf("the log read the term files as segments: start %d, err %v", start, err)
	}
	if _, err := LoadTermState(fs, retired); err == nil || !strings.Contains(err.Error(), "retired two-slot layout") {
		t.Fatalf("retired term.a/term.b layout: want an error naming it, got %v", err)
	}

	// A disk that errors on open must not report term 0 as truth.
	boom := errors.New("transient disk error")
	failOpen := fault.NewFS(func(op fault.Op, _ string) error {
		if op == fault.OpOpen {
			return boom
		}
		return nil
	})
	if _, err := LoadTermState(failOpen, dir); !errors.Is(err, boom) {
		t.Fatalf("erroring disk: want the I/O error surfaced, got %v", err)
	}

	// Stamp supersedes a crashed claim at the same base instead of
	// stacking entries: term 2 claimed base 5 but never wrote a record,
	// so term 3's claim at the same base replaces it.
	s := TermState{Term: 3, Ledger: []TermBase{{Term: 1, Base: 1}}}
	s.Stamp(2, 5)
	s.Stamp(3, 5)
	if len(s.Ledger) != 2 || s.Ledger[1] != (TermBase{Term: 3, Base: 5}) {
		t.Fatalf("Stamp supersede: %+v", s.Ledger)
	}

	// ClaimTerm refuses to move backwards or sideways.
	if _, err := ClaimTerm(wal.Options{Dir: dir}, 7); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("re-claiming an adopted term: want ErrStaleTerm, got %v", err)
	}
	if _, err := ClaimTerm(wal.Options{Dir: dir}, 8); err != nil {
		t.Fatalf("claiming term 8: %v", err)
	}
}

// ledgerCodecCases are fixed inputs with the bytes the term file and the
// snapshot offer encode them to, recorded before both formats shared
// appendLedger: the shared codec must keep each byte-identical.
var ledgerCodecCases = []struct {
	state             TermState
	offer             snapOffer
	termHex, offerHex string
}{
	{
		termHex:  "4d54445402000000000000000000009f6da4c5",
		offerHex: "0000000000000000000000000000",
	},
	{
		state: TermState{Term: 7, Ledger: []TermBase{{Term: 1, Base: 1}, {Term: 3, Base: 500}}},
		offer: snapOffer{Total: 9, CRC: 0xDEADBEEF, Ledger: []TermBase{{Term: 1, Base: 1}, {Term: 3, Base: 500}}},
		termHex: "4d5444540207000000000000000200010000000000000001000000000000000300000000000000" +
			"f4010000000000005656836d",
		offerHex: "0900000000000000efbeadde020001000000000000000100000000000000030000000000000" +
			"0f401000000000000",
	},
}

// TestLedgerCodecBytes pins the term file's and the snapshot offer's
// bytes for fixed inputs, and that each decodes back to its input.
func TestLedgerCodecBytes(t *testing.T) {
	dir := t.TempDir()
	for i, c := range ledgerCodecCases {
		if err := SaveTermState(wal.OSFS{}, dir, c.state); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, termFileName))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(raw); got != c.termHex {
			t.Errorf("case %d: term file\n got %s\nwant %s", i, got, c.termHex)
		}
		if s, ok := decodeTermState(raw); !ok || !reflect.DeepEqual(s, c.state) {
			t.Errorf("case %d: term file decodes to %+v (ok %v), want %+v", i, s, ok, c.state)
		}
		enc := c.offer.encode()
		if got := hex.EncodeToString(enc); got != c.offerHex {
			t.Errorf("case %d: snapshot offer\n got %s\nwant %s", i, got, c.offerHex)
		}
		if o, err := decodeSnapOffer(enc); err != nil || !reflect.DeepEqual(o, c.offer) {
			t.Errorf("case %d: offer decodes to %+v (%v), want %+v", i, o, err, c.offer)
		}
	}
}

// FuzzTermState fuzzes the term file's decoder, which reads the durable
// state that fences deposed primaries: every input either fails to
// decode or re-encodes byte-identical — never a panic, never a state
// that would save differently from what was read.
func FuzzTermState(f *testing.F) {
	f.Add([]byte(nil))
	for _, c := range ledgerCodecCases {
		f.Add(encodeTermState(c.state))
	}
	full := encodeTermState(TermState{Term: 9, Ledger: []TermBase{{Term: 2, Base: 4}}})
	f.Add(full[:len(full)-1])
	f.Add(append(append([]byte(nil), full...), 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := decodeTermState(data)
		if !ok {
			return
		}
		if re := encodeTermState(s); !bytes.Equal(re, data) {
			t.Fatalf("accepted term file does not re-encode byte-identical:\n in:  %x\n out: %x", data, re)
		}
	})
}
