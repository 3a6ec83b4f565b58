package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// segmentSeeds is the corpus both fuzz targets start from: batch
// payloads, one valid segment, and the damage classes recovery and the
// tailer must agree on.
func segmentSeeds() [][]byte {
	seeds := [][]byte{
		{},
		EncodeBatch([]graph.Update{{Edge: graph.Edge{Src: 1, Dst: 2, Weight: 0.5}}}),
		EncodeBatch([]graph.Update{{Edge: graph.Edge{Src: 3, Dst: 4, Weight: -1}, Delete: true}}),
	}
	// Non-canonical flags bytes: the delete bit plus one EncodeBatch never
	// sets, and an unknown bit alone. Neither may decode.
	for _, flags := range []byte{flagDelete | 0x02, 0x80} {
		p := EncodeBatch(tailBatch(1))
		p[4+updateBytes-1] = flags
		seeds = append(seeds, p)
	}
	// A valid tiny segment: header + one record.
	hdr := encodeSegHeader(1)
	seg := append([]byte(nil), hdr[:]...)
	seg = append(seg, appendRecord(nil, 1, EncodeBatch(tailBatch(1)))...)
	seeds = append(seeds, seg)
	// Truncations and bit flips of the valid segment.
	seeds = append(seeds, seg[:len(seg)-3])
	flipped := append([]byte(nil), seg...)
	flipped[segHeaderSize+2] ^= 0x40
	seeds = append(seeds, flipped)
	// Implausible payload length in a record header.
	huge := append([]byte(nil), hdr[:]...)
	var rh [recHeaderSize]byte
	binary.LittleEndian.PutUint64(rh[0:8], 1)
	binary.LittleEndian.PutUint32(rh[8:12], 1<<31)
	return append(seeds, append(huge, rh[:]...))
}

// FuzzRecordDecode drives arbitrary bytes through both decode paths a
// replica trusts: batch payload decoding, and a full segment scan
// (Open + Replay + Tailer) over a file with fuzz-controlled contents.
// Nothing may panic; every failure must be a typed error.
func FuzzRecordDecode(f *testing.F) {
	for _, seed := range segmentSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if batch, err := DecodeBatch(data); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeBatch returned untyped error: %v", err)
			}
		} else {
			requireCanonical(t, data, batch)
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatalf("write segment: %v", err)
		}
		l, _, err := Open(Options{Dir: dir})
		if err != nil {
			requireTyped(t, err)
			return
		}
		err = l.Replay(0, func(uint64, []graph.Update) error { return nil })
		l.Close()
		if err != nil {
			requireTyped(t, err)
		}

		tl := NewTailer(Options{Dir: dir}, 0)
		for {
			_, _, err := tl.Next()
			if err != nil {
				if !errors.Is(err, ErrCaughtUp) && !errors.Is(err, ErrCompacted) {
					requireTyped(t, err)
				}
				break
			}
		}
		tl.Close()
	})
}

// requireCanonical asserts the property that lets a member log and ship
// the payload it received: an accepted payload is byte-for-byte the
// encoding of what it decoded to, and decoding it again onto a reused,
// dirty slice yields the same batch behind what the slice held.
func requireCanonical(t *testing.T, payload []byte, batch []graph.Update) {
	t.Helper()
	if re := EncodeBatch(batch); !bytes.Equal(re, payload) {
		t.Fatalf("accepted payload is not canonical:\n got %x\nwant %x", payload, re)
	}
	dirty := make([]graph.Update, len(batch)+1)
	for i := range dirty {
		dirty[i] = graph.Update{Edge: graph.Edge{Src: ^uint32(0), Dst: ^uint32(0), Weight: -7}, Delete: true}
	}
	again, err := AppendBatch(dirty[:1], payload)
	if err != nil || !batchesEqual(again[1:], batch) || again[0] != dirty[0] {
		t.Fatalf("AppendBatch onto a reused, dirty slice: %v, %d updates (want 1 kept + %d)", err, len(again), len(batch))
	}
}

// requireTyped asserts an error from the WAL read path is one of the
// package's typed failures, not a raw I/O or runtime error.
func requireTyped(t *testing.T, err error) {
	t.Helper()
	var le *LogError
	if errors.As(err, &le) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTorn) {
		return
	}
	t.Fatalf("untyped WAL error: %v", err)
}

// FuzzSegmentReaders pins the single-reader rule: over any mutated or
// truncated set of segments, recovery (Open + Replay) and a fresh
// Tailer accept exactly the same records and agree on what the rest is
// — a tail to repair / wait on, or corruption neither may read around.
// data is cut at split into segment 1 and a second segment named by
// base2, so header mismatches, sequence gaps and sealed-segment damage
// are all reachable.
func FuzzSegmentReaders(f *testing.F) {
	for _, seed := range segmentSeeds() {
		f.Add(seed, uint16(len(seed)), uint8(0))
		f.Add(seed, uint16(segHeaderSize), uint8(3))
	}
	// A clean two-segment log (records 1-2, then 3), and the same bytes
	// with segment 1 torn, segment 2 misnamed, and segment 2 headerless.
	one := encodeSegHeader(1)
	first := append([]byte(nil), one[:]...)
	first = append(first, appendRecord(nil, 1, EncodeBatch(tailBatch(1)))...)
	first = append(first, appendRecord(nil, 2, EncodeBatch(tailBatch(2)))...)
	three := encodeSegHeader(3)
	both := append(append([]byte(nil), first...), three[:]...)
	both = append(both, appendRecord(nil, 3, EncodeBatch(tailBatch(3)))...)
	f.Add(both, uint16(len(first)), uint8(1))
	f.Add(both, uint16(len(first)-5), uint8(1))
	f.Add(both, uint16(len(first)), uint8(2))
	f.Add(both[:len(first)+7], uint16(len(first)), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, split uint16, base2 uint8) {
		dir := t.TempDir()
		cut := min(int(split), len(data))
		files := map[string][]byte{segName(1): data[:cut]}
		if cut < len(data) {
			files[segName(2+uint64(base2))] = data[cut:]
		}
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatalf("write segment: %v", err)
			}
		}

		// The tailer first: it is read-only, Open repairs in place.
		type record struct {
			seq     uint64
			payload []byte
		}
		var tailed []record
		tl := NewTailer(Options{Dir: dir}, 0)
		defer tl.Close()
		var tailErr error
		for tailErr == nil {
			var r record
			if r.seq, r.payload, tailErr = tl.Next(); tailErr == nil {
				tailed = append(tailed, r)
			}
		}

		l, rec, err := Open(Options{Dir: dir})
		if err != nil {
			requireTyped(t, err)
			if !errors.Is(tailErr, ErrCorrupt) {
				t.Fatalf("Open refused the log (%v) but the tailer ended with %v after %d records", err, tailErr, len(tailed))
			}
			return
		}
		defer l.Close()
		if !errors.Is(tailErr, ErrCaughtUp) {
			t.Fatalf("Open accepted the log (%+v) but the tailer ended with %v", rec, tailErr)
		}
		if rec.Records != len(tailed) || (len(tailed) > 0 && tailed[len(tailed)-1].seq != rec.LastSeq) {
			t.Fatalf("Open kept %d records through seq %d, the tailer shipped %d", rec.Records, rec.LastSeq, len(tailed))
		}
		// Replay decodes what the tailer ships raw: same records, same
		// order, and it may stop early only at a payload that does not
		// decode.
		got := 0
		err = l.Replay(0, func(seq uint64, batch []graph.Update) error {
			want, derr := DecodeBatch(tailed[got].payload)
			if derr != nil || seq != tailed[got].seq || !batchesEqual(batch, want) {
				t.Fatalf("Replay record %d (seq %d) differs from the tailer's seq %d (decode: %v)", got, seq, tailed[got].seq, derr)
			}
			requireCanonical(t, tailed[got].payload, batch)
			got++
			return nil
		})
		if err != nil {
			requireTyped(t, err)
			if got == len(tailed) {
				t.Fatalf("Replay failed past the last record: %v", err)
			}
			if _, derr := DecodeBatch(tailed[got].payload); derr == nil {
				t.Fatalf("Replay refused record %d, which decodes: %v", got, err)
			}
		} else if got != len(tailed) {
			t.Fatalf("Replay delivered %d of the tailer's %d records", got, len(tailed))
		}
	})
}
