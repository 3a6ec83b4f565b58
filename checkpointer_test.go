package tdgraph_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// TestLoadSessionTypedErrors is the regression suite for the satellite
// "descriptive typed error on truncated or magic-mismatched input":
// every malformed checkpoint shape must come back as a *CheckpointError
// carrying the right sentinel, never a raw io error or a panic.
func TestLoadSessionTypedErrors(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	load := func(data []byte) error {
		_, err := tdgraph.LoadSession(tdgraph.NewSSSP(0), bytes.NewReader(data), tdgraph.SessionOptions{})
		return err
	}

	for _, tc := range []struct {
		name     string
		mangle   func([]byte) []byte
		sentinel error
	}{
		{"empty", func(b []byte) []byte { return nil }, tdgraph.ErrCheckpointTruncated},
		{"torn header", func(b []byte) []byte { return b[:5] }, tdgraph.ErrCheckpointTruncated},
		{"torn meta block", func(b []byte) []byte { return b[:14] }, tdgraph.ErrCheckpointTruncated},
		{"torn graph block", func(b []byte) []byte { return b[:32] }, tdgraph.ErrCheckpointTruncated},
		{"torn state block", func(b []byte) []byte { return b[:len(b)-9] }, tdgraph.ErrCheckpointTruncated},
		{"bad magic", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[0] ^= 0xFF
			return out
		}, tdgraph.ErrCheckpointCorrupt},
		{"bad version", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[4] = 99
			return out
		}, tdgraph.ErrCheckpointCorrupt},
		{"TDS2 version", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[4] = 2
			return out
		}, tdgraph.ErrCheckpointCorrupt},
		{"meta checksum flip", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[16] ^= 0x10 // the (empty) meta block's stored CRC
			return out
		}, tdgraph.ErrCheckpointCorrupt},
		{"graph bit flip", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[37] ^= 0x10 // past header(8) + meta block(12) + graph block header(12)
			return out
		}, tdgraph.ErrCheckpointCorrupt},
		{"state bit flip", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-2] ^= 0x10
			return out
		}, tdgraph.ErrCheckpointCorrupt},
	} {
		err := load(tc.mangle(valid))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		var ce *tdgraph.CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: untyped error %T: %v", tc.name, err, err)
		}
		if !errors.Is(err, tc.sentinel) {
			t.Fatalf("%s: error %v does not wrap %v", tc.name, err, tc.sentinel)
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
