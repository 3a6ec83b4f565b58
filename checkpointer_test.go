package tdgraph_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// blockSpan locates one block of a v4 checkpoint: the length field at
// [Len, Payload), the payload at [Payload, CRC), the trailing checksum
// at [CRC, End).
type blockSpan struct{ Len, Payload, CRC, End int }

// ckptBlocks parses a well-formed checkpoint's framing, so a fixture
// aims at a named field of a named block instead of a byte offset that
// lands in some other field the day the layout moves.
func ckptBlocks(t testing.TB, b []byte) (meta, graph, state blockSpan) {
	t.Helper()
	var spans [3]blockSpan
	off := 8 // magic, version
	for i := range spans {
		n := int(binary.LittleEndian.Uint64(b[off:]))
		spans[i] = blockSpan{Len: off, Payload: off + 8, CRC: off + 8 + n, End: off + 8 + n + 4}
		off = spans[i].End
	}
	if off != len(b) {
		t.Fatalf("checkpoint framing covers %d of %d bytes", off, len(b))
	}
	return spans[0], spans[1], spans[2]
}

// savedWithMeta returns the bytes of one checkpoint generation of s
// carrying meta.
func savedWithMeta(t testing.TB, s *tdgraph.Session, meta string) []byte {
	t.Helper()
	ck := tdgraph.NewCheckpointer(filepath.Join(t.TempDir(), "ckpt.tds"))
	if err := ck.SaveWithMeta(s, []byte(meta)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// asV3 reframes a v4 checkpoint the way the retired v3 laid a file out:
// version 3, each block's CRC ahead of its payload.
func asV3(t testing.TB, b []byte) []byte {
	t.Helper()
	out := append([]byte(nil), b[:8]...)
	out[4] = 3
	meta, graph, state := ckptBlocks(t, b)
	for _, blk := range []blockSpan{meta, graph, state} {
		out = append(out, b[blk.Len:blk.Payload]...)
		out = append(out, b[blk.CRC:blk.End]...)
		out = append(out, b[blk.Payload:blk.CRC]...)
	}
	return out
}

// TestLoadSessionTypedErrors is the regression suite for the satellite
// "descriptive typed error on truncated or magic-mismatched input":
// every malformed checkpoint shape must come back as a *CheckpointError
// naming the stage that owns the damaged field and carrying the right
// sentinel, never a raw io error or a panic.
func TestLoadSessionTypedErrors(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	valid := savedWithMeta(t, s, "seq-0042")
	meta, graph, state := ckptBlocks(t, valid)

	load := func(data []byte) error {
		s, err := tdgraph.LoadSession(tdgraph.NewSSSP(0), bytes.NewReader(data), tdgraph.SessionOptions{})
		if err == nil {
			s.Close()
		}
		return err
	}
	tornAt := func(n int) func([]byte) []byte {
		return func(b []byte) []byte { return b[:n] }
	}
	flipAt := func(i int) func([]byte) []byte {
		return func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[i] ^= 0x10
			return out
		}
	}
	version := func(v byte) func([]byte) []byte {
		return func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[4] = v
			return out
		}
	}

	for _, tc := range []struct {
		name     string
		mangle   func([]byte) []byte
		stage    string
		sentinel error
	}{
		{"empty", tornAt(0), "header", tdgraph.ErrCheckpointTruncated},
		{"torn header", tornAt(5), "header", tdgraph.ErrCheckpointTruncated},
		{"torn meta length", tornAt(meta.Len + 6), "meta", tdgraph.ErrCheckpointTruncated},
		{"torn meta payload", tornAt(meta.Payload + 3), "meta", tdgraph.ErrCheckpointTruncated},
		{"torn between meta payload and its CRC", tornAt(meta.CRC), "meta", tdgraph.ErrCheckpointTruncated},
		{"torn graph length", tornAt(graph.Len + 2), "graph", tdgraph.ErrCheckpointTruncated},
		{"torn graph payload", tornAt(graph.Payload + 12), "graph", tdgraph.ErrCheckpointTruncated},
		{"torn between graph payload and its CRC", tornAt(graph.CRC), "graph", tdgraph.ErrCheckpointTruncated},
		{"torn inside graph CRC", tornAt(graph.CRC + 2), "graph", tdgraph.ErrCheckpointTruncated},
		{"torn state payload", tornAt(state.CRC - 9), "state", tdgraph.ErrCheckpointTruncated},
		{"torn between state payload and its CRC", tornAt(state.CRC), "state", tdgraph.ErrCheckpointTruncated},
		{"torn inside state CRC", tornAt(state.End - 1), "state", tdgraph.ErrCheckpointTruncated},
		{"bad magic", flipAt(0), "header", tdgraph.ErrCheckpointCorrupt},
		{"unknown version", version(99), "header", tdgraph.ErrCheckpointCorrupt},
		{"v2 version", version(2), "header", tdgraph.ErrCheckpointCorrupt},
		{"v3 file", func(b []byte) []byte { return asV3(t, b) }, "header", tdgraph.ErrCheckpointCorrupt},
		{"meta payload flip", flipAt(meta.Payload + 7), "meta", tdgraph.ErrCheckpointCorrupt},
		{"meta CRC flip", flipAt(meta.CRC), "meta", tdgraph.ErrCheckpointCorrupt},
		{"graph length implausible", flipAt(graph.Payload - 1), "graph", tdgraph.ErrCheckpointCorrupt},
		// 2^36 more bytes than the file holds: a short read, and (the
		// regression) no attempt to allocate what the field claims.
		{"graph length beyond the file", flipAt(graph.Len + 4), "graph", tdgraph.ErrCheckpointTruncated},
		{"graph payload flip", flipAt(graph.Payload + 13), "graph", tdgraph.ErrCheckpointCorrupt},
		{"graph CRC flip", flipAt(graph.CRC + 1), "graph", tdgraph.ErrCheckpointCorrupt},
		{"state payload flip", flipAt(state.Payload + 9), "state", tdgraph.ErrCheckpointCorrupt},
		{"state CRC flip", flipAt(state.End - 2), "state", tdgraph.ErrCheckpointCorrupt},
	} {
		err := load(tc.mangle(valid))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		var ce *tdgraph.CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: untyped error %T: %v", tc.name, err, err)
		}
		if ce.Stage != tc.stage || !errors.Is(err, tc.sentinel) {
			t.Fatalf("%s: error %v, want a %s-stage error wrapping %v", tc.name, err, tc.stage, tc.sentinel)
		}
	}
	if err := load(valid); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

// TestSaveFileAtomic verifies a failed save never clobbers the previous
// checkpoint and leaves no temp litter behind.
func TestSaveFileAtomic(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.tds")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A save into an unwritable directory fails without touching path.
	if err := s.SaveFile(filepath.Join(dir, "missing", "ckpt.tds")); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatal("failed save disturbed the existing checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

// TestCheckpointerRecovery injects checkpoint corruption and verifies the
// rotating generations recover: a torn or bit-flipped newest checkpoint
// degrades to the previous good generation, and the recovery is recorded.
func TestCheckpointerRecovery(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, class := range []string{"ckpt-trunc:0.3", "ckpt-flip:8"} {
		t.Run(class, func(t *testing.T) {
			dir := t.TempDir()
			ck := tdgraph.NewCheckpointer(filepath.Join(dir, "ckpt.tds"))
			// Two generations: good, then newest which we corrupt on disk.
			if err := ck.SaveWithMeta(s, nil); err != nil {
				t.Fatal(err)
			}
			if err := ck.SaveWithMeta(s, nil); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(ck.Path)
			if err != nil {
				t.Fatal(err)
			}
			in, err := fault.Parse(class, 7)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ck.Path, in.CorruptCheckpoint(data), 0o644); err != nil {
				t.Fatal(err)
			}
			restored, _, skipped, err := ck.LoadWithMeta(tdgraph.NewCC(), tdgraph.SessionOptions{})
			if err != nil {
				t.Fatalf("recovery failed: %v (skipped %v)", err, skipped)
			}
			defer restored.Close()
			if len(skipped) != 1 || skipped[0].Path != ck.Path {
				t.Fatalf("expected the newest generation skipped, got %v", skipped)
			}
			var ce *tdgraph.CheckpointError
			if !errors.As(skipped[0].Err, &ce) {
				t.Fatalf("skip reason untyped: %v", skipped[0].Err)
			}
			if restored.NumEdges() != s.NumEdges() || restored.NumVertices() != s.NumVertices() {
				t.Fatal("recovered session has wrong shape")
			}
			if restored.RobustStats().Get(stats.CtrCheckpointRecovered) != 1 {
				t.Fatalf("recovery not counted: %v", restored.RobustStats().Snapshot())
			}
			if v, ok := restored.Audit(); !ok {
				t.Fatalf("recovered states diverge at vertex %d", v)
			}
		})
	}
	// All generations corrupt: typed error, no panic.
	dir := t.TempDir()
	ck := tdgraph.NewCheckpointer(filepath.Join(dir, "ckpt.tds"))
	if err := ck.SaveWithMeta(s, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck.Path, []byte{9, 9, 9}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ck.LoadWithMeta(tdgraph.NewCC(), tdgraph.SessionOptions{}); err == nil {
		t.Fatal("load with no valid generation succeeded")
	}
}

// TestCheckpointerScheduledIOErrors drives Save/LoadSession through the
// injector's failing reader and writer wrappers: the scheduled error must
// surface (typed, wrapping fault.ErrInjected where the fault layer threw
// it) and never panic.
func TestCheckpointerScheduledIOErrors(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in, _ := fault.Parse("write-err:64", 3)
	if err := s.Save(in.Writer(&bytes.Buffer{})); err == nil {
		t.Fatal("save over failing writer succeeded")
	} else if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("save error lost the injected sentinel: %v", err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	in2, _ := fault.Parse("read-err:64", 3)
	_, err = tdgraph.LoadSession(tdgraph.NewCC(), in2.Reader(&buf), tdgraph.SessionOptions{})
	if err == nil {
		t.Fatal("load over failing reader succeeded")
	}
	var ce *tdgraph.CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("load error untyped: %T %v", err, err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("load error lost the injected sentinel: %v", err)
	}
}
