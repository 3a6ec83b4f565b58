package tdgraph

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointerKillPoints stops SaveWithMeta and Install at every
// step that changes the directory — by failing the fsyncDir hook, or by
// building the directory an earlier kill leaves — and checks the two
// properties one file per generation is for: whatever LoadWithMeta
// restores is a complete generation with ITS OWN metadata (generation k
// holds k+3 edges and says "seq-k"), and once Install has renamed the
// shipped file into place nothing older can ever be restored.
func TestCheckpointerKillPoints(t *testing.T) {
	origSync := fsyncDir
	defer func() { fsyncDir = origSync }()
	crash := errors.New("killed here")
	failSyncAt := func(n int) { // the n-th directory fsync from now "kills" the call
		calls := 0
		fsyncDir = func(dir string) error {
			if calls++; calls == n {
				return crash
			}
			return origSync(dir)
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
		{"save: renamed, directory fsync lost", func(t *testing.T, ck *Checkpointer, next *Session) {
			failSyncAt(1)
			if err := ck.SaveWithMeta(next, []byte("seq-3")); !errors.Is(err, crash) {
				t.Fatalf("SaveWithMeta = %v, want the injected kill", err)
			}
		}, 3, false},
		{"install: older generation removed, not renamed", func(t *testing.T, ck *Checkpointer, next *Session) {
			tmp := shipped(t, ck, next)
			failSyncAt(1)
			if err := ck.Install(tmp); !errors.Is(err, crash) {
				t.Fatalf("Install = %v, want the injected kill", err)
			}
		}, 2, true},
		{"install: renamed, directory fsync lost", func(t *testing.T, ck *Checkpointer, next *Session) {
			tmp := shipped(t, ck, next)
			failSyncAt(2)
			if err := ck.Install(tmp); !errors.Is(err, crash) {
				t.Fatalf("Install = %v, want the injected kill", err)
			}
		}, 3, true},
		{"install: complete", func(t *testing.T, ck *Checkpointer, next *Session) {
			must(t, ck.Install(shipped(t, ck, next)))
			if left, err := os.ReadDir(filepath.Dir(ck.Path)); err != nil || len(left) != 1 || left[0].Name() != "ckpt.tds" {
				t.Fatalf("directory after Install holds %v (err %v), want only the installed generation", left, err)
			}
		}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsyncDir = origSync
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
			fsyncDir = origSync

			restored, meta, _, err := ck.LoadWithMeta(NewSSSP(0), SessionOptions{})
			if err != nil {
				t.Fatalf("nothing restorable: %v", err)
			}
			if gen := restored.NumEdges() - 3; gen != tc.want || string(meta) != "seq-"+string(rune('0'+gen)) {
				t.Fatalf("restored generation %d labelled %q, want generation %d under its own label", gen, meta, tc.want)
			}
			if tc.only {
				must(t, os.WriteFile(ck.Path, []byte("damaged"), 0o644))
				if s, meta, _, err := ck.LoadWithMeta(NewSSSP(0), SessionOptions{}); err == nil {
					t.Fatalf("fell back past an install to generation %d (%q)", s.NumEdges()-3, meta)
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
		must(t, os.WriteFile(ck.Path+".tmp1", tmp(newest), 0o644))
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
