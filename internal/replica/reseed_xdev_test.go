//go:build unix

package replica

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestReseedAcrossFilesystems: a diverged follower whose WAL and
// checkpoint generations live on different filesystems still installs
// the shipped snapshot. The transfer is staged beside the generations,
// so the install is a rename inside one directory, never across
// devices (where rename fails with EXDEV after the WAL was reset).
func TestReseedAcrossFilesystems(t *testing.T) {
	walDir, err := os.MkdirTemp("/dev/shm", "tdgraph-reseed-wal-")
	if err != nil {
		t.Skipf("no tmpfs directory for the WAL: %v", err)
	}
	t.Cleanup(func() { os.RemoveAll(walDir) })
	ckptDir := t.TempDir()
	if device(t, walDir) == device(t, ckptDir) {
		t.Skip("the WAL and checkpoint directories share a device")
	}
	w := testWorkload(t, 10)
	want := referenceStates(w)

	// Follower A lives a first life under term 1: all ten batches.
	acfg := nodeConfig(w, walDir)
	acfg.CheckpointPath = filepath.Join(ckptDir, "ckpt.tds")
	fa, err := NewFollower(FollowerConfig{Pipeline: acfg})
	if err != nil {
		t.Fatal(err)
	}
	feedFollower(t, fa, w, 1, 0, 10)

	// A primary at term 2 with a shorter, checkpointed history: A's log
	// is ahead of its end, so the attach reseeds A.
	pdir := t.TempDir()
	col := stats.NewCollector()
	pcfg := nodeConfig(w, pdir)
	pcfg.Collector = col
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 2); err != nil {
		t.Fatal(err)
	}
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:5] {
		if err := pipe.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	prim := NewPrimary(PrimaryConfig{
		Term: 2, ClusterSize: 2, WAL: pcfg.WAL, Collector: col,
		Snapshots: pipe, SnapChunkBytes: 64,
	})
	na := attach(t, prim, fa, nil)
	if fa.Seq() != 5 {
		t.Fatalf("follower at seq %d after attach, want 5", fa.Seq())
	}
	pipe.SetRetentionAdvisor(prim)
	for _, b := range w.Batches[5:] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	prim.Close()
	if err := <-na.done; err != nil {
		t.Fatalf("follower session: %v", err)
	}
	if fa.Seq() != 10 || !statesEqual(fa.Pipeline().Session().States(), want) {
		t.Fatalf("reseeded follower at seq %d, want 10 with reference states", fa.Seq())
	}
	if got := fa.Pipeline().Collector().Get(stats.CtrReplReseedInstalls); got != 1 {
		t.Fatalf("follower installs = %d, want 1", got)
	}
	for _, dir := range []string{walDir, ckptDir} {
		for _, name := range []string{reseedPartialName, reseedMarkName} {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s left behind in %s after install (err %v)", name, dir, err)
			}
		}
	}
	if err := fa.Pipeline().Close(); err != nil {
		t.Fatal(err)
	}

	// The installed identity survives a restart from the split layout.
	fb, err := NewFollower(FollowerConfig{Pipeline: acfg})
	if err != nil {
		t.Fatalf("restart after install: %v", err)
	}
	defer fb.Pipeline().Close()
	if fb.Seq() != 10 || !statesEqual(fb.Pipeline().Session().States(), want) {
		t.Fatalf("restarted follower at seq %d, want 10 with reference states", fb.Seq())
	}
}

// device is the filesystem device holding path.
func device(t *testing.T, path string) uint64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return uint64(st.Sys().(*syscall.Stat_t).Dev)
}
