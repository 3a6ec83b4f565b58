package tdgraph

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// newTestSession builds a small session for white-box io tests.
func newTestSession(t *testing.T) *Session {
	t.Helper()
	edges := []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 0, Dst: 3, Weight: 4}}
	s, err := NewSession(NewSSSP(0), edges, 4, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestSaveFileSyncsParentDirectory is the regression test for the
// missing parent-directory fsync: an atomic-rename save that does not
// fsync the directory can lose the rename itself across a power cut,
// leaving the OLD checkpoint at path despite a successful return.
// SaveFile is wal.ReplaceFile over the real filesystem; the same call
// on a hooked FS must sync the directory, the right one, after the
// renamed file is already in place.
func TestSaveFileSyncsParentDirectory(t *testing.T) {
	s := newTestSession(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.tds")

	var calls []string
	fs := fault.NewFS(func(op fault.Op, d string) error {
		if op != fault.OpSyncDir {
			return nil
		}
		// The rename must already be durable-ordered before the dir sync:
		// path exists at the moment the hook runs.
		if _, err := os.Stat(path); err != nil {
			t.Errorf("directory synced before the rename landed: %v", err)
		}
		calls = append(calls, d)
		return nil
	})

	if err := wal.ReplaceFile(fs, path, s.Save); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != dir {
		t.Fatalf("parent-directory fsync calls = %v, want exactly [%s]", calls, dir)
	}
}

// TestSaveFileDirSyncFailureSurfaces: a failed directory sync means the
// save is NOT durable; SaveFile's replace must report it, wrapped, not
// swallow it.
func TestSaveFileDirSyncFailureSurfaces(t *testing.T) {
	s := newTestSession(t)
	dir := t.TempDir()

	boom := errors.New("directory sync failed")
	fs := fault.NewFS(func(op fault.Op, _ string) error {
		if op == fault.OpSyncDir {
			return boom
		}
		return nil
	})

	err := wal.ReplaceFile(fs, filepath.Join(dir, "ckpt.tds"), s.Save)
	if !errors.Is(err, boom) || err == boom {
		t.Fatalf("dir-sync failure not surfaced wrapped: %v", err)
	}
}

// TestSaveNeverSeals: the native save path streams from the store. The
// sealed snapshot is dropped by the batch and must still be absent after
// the save — a save that called snapshot() would leave ~2x the graph
// cached on every member until the next batch.
func TestSaveNeverSeals(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 0, Dst: 3, Weight: 4}}
	s, err := NewSession(NewSSSP(0), edges, 4, SessionOptions{Cores: 2})
	must(t, err)
	defer s.Close()
	_, err = s.ApplyBatch([]Update{{Edge: Edge{Src: 3, Dst: 2, Weight: 1}}})
	must(t, err)
	must(t, NewCheckpointer(filepath.Join(t.TempDir(), "ckpt.tds")).SaveWithMeta(s, []byte("seq-1")))
	if s.sealed != nil {
		t.Fatal("the save sealed a snapshot and left it cached")
	}
}

// TestStateMirrorBuiltOnFirstRead: a native session that only applies
// batches, reads its counters and single states, and saves checkpoints
// holds no copy of its states — State and the save read the engine's
// own, so the serving path never builds one — and the first States read
// builds one bit-identical to the engine's, refreshed after the next
// batch.
func TestStateMirrorBuiltOnFirstRead(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 0, Dst: 3, Weight: 4}}
	s, err := NewSession(NewSSSP(0), edges, 4, SessionOptions{Cores: 2})
	must(t, err)
	defer s.Close()
	sameBits := func(label string) {
		t.Helper()
		got, want := s.States(), s.sess.StatesCopy()
		if len(got) != len(want) || len(got) != s.NumVertices() {
			t.Fatalf("%s: %d mirrored states, the engine holds %d for %d vertices", label, len(got), len(want), s.NumVertices())
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s: vertex %d mirrors %v, the engine holds %v", label, v, got[v], want[v])
			}
		}
	}
	for _, u := range []Update{{Edge: Edge{Src: 3, Dst: 2, Weight: 1}}, {Edge: Edge{Src: 0, Dst: 1}, Delete: true}, {Edge: Edge{Src: 2, Dst: 5, Weight: 3}}} {
		_, err := s.ApplyBatch([]Update{u})
		must(t, err)
		var ckpt bytes.Buffer
		must(t, s.Save(&ckpt))
		if s.Metrics() == nil || s.State(2) != s.sess.State(2) || s.state != nil {
			t.Fatalf("after applying %v, saving and reading one state: a %d-entry state mirror exists, want none", u, len(s.state))
		}
		restored, err := LoadSession(NewSSSP(0), &ckpt, SessionOptions{})
		must(t, err)
		defer restored.Close()
		for v, x := range s.sess.StatesCopy() {
			if math.Float64bits(restored.State(VertexID(v))) != math.Float64bits(x) {
				t.Fatalf("after applying %v: the checkpoint holds %v for vertex %d, the engine %v", u, restored.State(VertexID(v)), v, x)
			}
		}
	}
	sameBits("first read")
	_, err = s.ApplyBatch([]Update{{Edge: Edge{Src: 5, Dst: 6, Weight: 1}}})
	must(t, err)
	sameBits("after a further batch")
}

// TestSaveFailureKeepsPreviousGeneration: a save that dies inside the
// graph block — the writer failing at three points, or the store
// streaming a byte more or fewer than the length already declared ahead
// of the block — returns the error, leaves no temp file, publishes
// nothing, and the previous generation still restores under its own
// metadata. The writeGraph hook is the one way to disturb the stream
// underneath Checkpointer.SaveWithMeta, whose destination is a temp file
// it creates itself. (Its sim arm, which streamed a sealed Snapshot, went
// with the Session's second engine; internal/graph
// TestStoreWriteBinaryMatchesSeal owns that writer's bytes.)
func TestSaveFailureKeepsPreviousGeneration(t *testing.T) {
	failAfter := func(n int) func(io.Writer) io.Writer {
		return func(w io.Writer) io.Writer { return fault.Writer(w, int64(n)) }
	}
	for name, tc := range map[string]struct {
		wrap func(io.Writer) io.Writer
		want func(error) bool
	}{
		"write fails at the block's first byte": {failAfter(0), injected},
		"write fails inside the offsets":        {failAfter(40), injected},
		"write fails inside the edges":          {failAfter(90), injected},
		"one byte short of the declared length": {func(w io.Writer) io.Writer { return &dropLast{w: w} }, lengthMismatch},
		"one byte past the declared length":     {func(w io.Writer) io.Writer { return &addOne{w: w} }, lengthMismatch},
	} {
		t.Run("native/"+name, func(t *testing.T) {
			edges := []Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 0, Dst: 3, Weight: 4}}
			s, err := NewSession(NewSSSP(0), edges, 4, SessionOptions{Cores: 2})
			must(t, err)
			defer s.Close()
			dir := t.TempDir()
			ck := NewCheckpointer(filepath.Join(dir, "ckpt.tds"))
			must(t, ck.SaveWithMeta(s, []byte("seq-1")))

			_, err = s.ApplyBatch([]Update{{Edge: Edge{Src: 3, Dst: 2, Weight: 1}}})
			must(t, err)
			orig := writeGraph
			defer func() { writeGraph = orig }()
			writeGraph = func(st *graph.Store, w io.Writer) error { return orig(st, tc.wrap(w)) }
			if err := ck.SaveWithMeta(s, []byte("seq-2")); err == nil || !tc.want(err) {
				t.Fatalf("SaveWithMeta = %v, want the stream's failure", err)
			}
			left, err := os.ReadDir(dir)
			must(t, err)
			if len(left) != 1 || left[0].Name() != "ckpt.tds.1" {
				t.Fatalf("directory after the failed save holds %v, want only the rotated previous generation", left)
			}
			restored, meta, _, err := ck.LoadWithMeta(NewSSSP(0), SessionOptions{})
			must(t, err)
			defer restored.Close()
			if string(meta) != "seq-1" || restored.NumEdges() != 3 {
				t.Fatalf("restored %q with %d edges, want the previous generation (seq-1, 3 edges)", meta, restored.NumEdges())
			}
		})
	}
}

func injected(err error) bool { return errors.Is(err, fault.ErrInjected) }

func lengthMismatch(err error) bool { return strings.Contains(err.Error(), "declared") }

// dropLast swallows the final byte it is handed, addOne writes one extra
// byte up front: a graph writer out of step with BinarySize either way.
type dropLast struct{ w io.Writer }

func (d *dropLast) Write(p []byte) (int, error) {
	if _, err := d.w.Write(p[:len(p)-1]); err != nil {
		return 0, err
	}
	return len(p), nil
}

type addOne struct {
	w    io.Writer
	done bool
}

func (a *addOne) Write(p []byte) (int, error) {
	if !a.done {
		a.done = true
		if _, err := a.w.Write([]byte{0}); err != nil {
			return 0, err
		}
	}
	return a.w.Write(p)
}
