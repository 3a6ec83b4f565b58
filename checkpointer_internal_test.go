package tdgraph

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/tdgraph/tdgraph/internal/fault"
)

// TestCheckpointerKillPoints stops SaveWithMeta and Install at every
// step that changes the directory — by failing a rename or directory
// sync on the checkpointer's FS, which the call must report wrapped, or
// by building the directory an earlier kill leaves — and checks the two
// properties one file per generation is for: whatever LoadWithMeta
// restores is a complete generation with ITS OWN metadata (generation k
// holds k+3 edges and says "seq-k"), and once Install has renamed the
// shipped file into place nothing older can ever be restored. After
// recovery one more save must leave only generation files behind: a
// temp file a kill left is overwritten, never orphaned for good.
func TestCheckpointerKillPoints(t *testing.T) {
	crash := errors.New("killed here")
	// kill makes the n-th Rename (or directory fsync) from now fail the
	// call, which must say so, wrapped.
	kill := func(t *testing.T, ck *Checkpointer, rename bool, n int, call func() error) {
		t.Helper()
		target, calls := fault.OpSyncDir, 0
		if rename {
			target = fault.OpRename
		}
		ck.FS = fault.NewFS(func(op fault.Op, _ string) error {
			if op != target {
				return nil
			}
			if calls++; calls == n {
				return crash
			}
			return nil
		})
		if err := call(); !errors.Is(err, crash) || err == crash {
			t.Fatalf("got %v, want the injected kill, wrapped", err)
		}
	}

	for _, tc := range []struct {
		name string
		// kill leaves the directory as a crash at this point would; the
		// checkpointer already holds generations 1 (older) and 2 (newest),
		// next is the session about to become generation 3.
		kill func(t *testing.T, ck *Checkpointer, next *Session)
		want int  // generation LoadWithMeta must restore
		only bool // and no other generation may be restorable
	}{
		{"save: rotated, nothing written", func(t *testing.T, ck *Checkpointer, _ *Session) {
			rotated(t, ck, nil)
		}, 2, false},
		{"save: temp file torn", func(t *testing.T, ck *Checkpointer, _ *Session) {
			rotated(t, ck, func(b []byte) []byte { return b[:len(b)/2] })
		}, 2, false},
		{"save: temp file complete, not renamed", func(t *testing.T, ck *Checkpointer, _ *Session) {
			rotated(t, ck, func(b []byte) []byte { return b })
		}, 2, false},
		{"save: rename fails", func(t *testing.T, ck *Checkpointer, next *Session) {
			kill(t, ck, true, 2, func() error { return ck.SaveWithMeta(next, []byte("seq-3")) })
		}, 2, false},
		{"save: renamed, directory fsync lost", func(t *testing.T, ck *Checkpointer, next *Session) {
			kill(t, ck, false, 1, func() error { return ck.SaveWithMeta(next, []byte("seq-3")) })
		}, 3, false},
		{"install: older generation removed, not renamed", func(t *testing.T, ck *Checkpointer, next *Session) {
			tmp := shipped(t, ck, next)
			kill(t, ck, false, 1, func() error { return ck.Install(tmp) })
		}, 2, true},
		{"install: rename fails", func(t *testing.T, ck *Checkpointer, next *Session) {
			tmp := shipped(t, ck, next)
			kill(t, ck, true, 1, func() error { return ck.Install(tmp) })
		}, 2, true},
		{"install: renamed, directory fsync lost", func(t *testing.T, ck *Checkpointer, next *Session) {
			tmp := shipped(t, ck, next)
			kill(t, ck, false, 2, func() error { return ck.Install(tmp) })
		}, 3, true},
		{"install: complete", func(t *testing.T, ck *Checkpointer, next *Session) {
			must(t, ck.Install(shipped(t, ck, next)))
			if left, err := os.ReadDir(filepath.Dir(ck.Path)); err != nil || len(left) != 1 || left[0].Name() != "ckpt.tds" {
				t.Fatalf("directory after Install holds %v (err %v), want only the installed generation", left, err)
			}
		}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := NewCheckpointer(filepath.Join(t.TempDir(), "ckpt.tds"))
			s := newTestSession(t) // 3 edges
			for gen := 1; gen <= 3; gen++ {
				_, err := s.ApplyBatch([]Update{{Edge: Edge{Src: 3, Dst: VertexID(3 + gen), Weight: 1}}})
				must(t, err)
				if gen < 3 { // generation 3 is the one the kill interrupts
					must(t, ck.SaveWithMeta(s, []byte{'s', 'e', 'q', '-', byte('0' + gen)}))
				}
			}
			tc.kill(t, ck, s)
			ck.FS = nil

			restored, meta, _, err := ck.LoadWithMeta(NewSSSP(0), SessionOptions{})
			if err != nil {
				t.Fatalf("nothing restorable: %v", err)
			}
			defer restored.Close()
			if gen := restored.NumEdges() - 3; gen != tc.want || string(meta) != "seq-"+string(rune('0'+gen)) {
				t.Fatalf("restored generation %d labelled %q, want generation %d under its own label", gen, meta, tc.want)
			}
			if tc.only {
				must(t, os.WriteFile(ck.Path, []byte("damaged"), 0o644))
				if s, meta, _, err := ck.LoadWithMeta(NewSSSP(0), SessionOptions{}); err == nil {
					t.Fatalf("fell back past an install to generation %d (%q)", s.NumEdges()-3, meta)
				}
			}
			must(t, ck.SaveWithMeta(restored, []byte("seq-4")))
			left, err := os.ReadDir(filepath.Dir(ck.Path))
			must(t, err)
			for _, e := range left {
				// An install killed before its rename leaves the shipped
				// file to the snapshot receiver, which resumes from it.
				if name := e.Name(); name != "ckpt.tds" && name != "ckpt.tds.1" && name != "reseed.partial" {
					t.Errorf("after recovery and one more save the directory still holds %s", name)
				}
			}
		})
	}
}

// shipped writes next as generation 3 to a temp file beside ck's
// generations, the way a received snapshot waits for Install.
func shipped(t *testing.T, ck *Checkpointer, next *Session) string {
	t.Helper()
	tmp := &Checkpointer{Path: filepath.Join(filepath.Dir(ck.Path), "reseed.partial"), Keep: 1}
	must(t, tmp.SaveWithMeta(next, []byte("seq-3")))
	return tmp.Path
}

// rotated leaves what SaveWithMeta's rotation leaves — the newest slot
// empty — plus tmp as the temp file the kill caught mid-write.
func rotated(t *testing.T, ck *Checkpointer, tmp func(newest []byte) []byte) {
	t.Helper()
	newest, err := os.ReadFile(ck.Path)
	must(t, err)
	must(t, os.Rename(ck.Path, ck.Path+".1"))
	if tmp != nil {
		must(t, os.WriteFile(ck.Path+".tmp", tmp(newest), 0o644))
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
