package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// diskGens decodes Checkpointer.Metas — the files — into the shape of
// Pipeline.gens: one sequence per slot, newest first, noGen where the
// slot restores nothing.
func diskGens(p *Pipeline) []uint64 {
	metas := p.ck.Metas()
	out := make([]uint64, len(metas))
	for i, m := range metas {
		out[i] = noGen
		if seq, err := decodeSeqMeta(m); err == nil {
			out[i] = seq
		}
	}
	return out
}

// gensAtLeastAsConservative: every generation that restores from disk
// is one the pipeline remembers in the same slot, so the oldest
// sequence memory knows is at most the oldest the files know.
func gensAtLeastAsConservative(mem, disk []uint64) bool {
	for i := range disk {
		if disk[i] != noGen && mem[i] != disk[i] {
			return false
		}
	}
	return slices.Min(mem) <= slices.Min(disk)
}

// TestGenerationsTrackCheckpointFiles: the generation list retention
// reads instead of the checkpoint files equals what the files say after
// every save, is forgotten by a save that fails — rotating into a slot,
// writing the new file, or publishing it — and read back equal by the
// next pass, is read equal at reopen, and names only the installed
// generation after InstallSnapshot. Where a generation file is present
// but no longer restores, the list stays at least as conservative as the
// files, and equal again once the bad file has rotated out.
func TestGenerationsTrackCheckpointFiles(t *testing.T) {
	for _, tc := range []struct {
		keep  int
		block string // the slot a non-empty directory squats on: the save's rename into it fails
		step  string
	}{
		{keep: 3, block: ".2", step: "rotating into the oldest slot"},
		{keep: 1, block: "", step: "publishing the new generation"},
	} {
		t.Run(fmt.Sprintf("keep=%d", tc.keep), func(t *testing.T) {
			w := testWorkload(t, 20)
			cfg := pipelineConfig(t, w)
			cfg.CheckpointKeep, cfg.CheckpointEvery = tc.keep, -1
			dir := filepath.Dir(cfg.CheckpointPath)
			p, err := NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if p != nil {
					p.Close()
				}
			}()
			same := func(when string) {
				t.Helper()
				if disk := diskGens(p); !slices.Equal(p.gens, disk) {
					t.Fatalf("%s: pipeline remembers %v, the files say %v", when, p.gens, disk)
				}
			}
			next := 0
			save := func() error {
				t.Helper()
				if err := p.Ingest(w.Batches[next]); err != nil {
					t.Fatal(err)
				}
				next++
				return p.Checkpoint()
			}
			mustSave := func() {
				t.Helper()
				if err := save(); err != nil {
					t.Fatal(err)
				}
				same("after a save")
			}
			failSave := func(step string) {
				t.Helper()
				if err := save(); err == nil {
					t.Fatalf("save %s succeeded", step)
				}
				if p.gens != nil {
					t.Fatalf("a save failed %s, yet the pipeline still trusts %v", step, p.gens)
				}
				if err := p.advanceRetention(); err != nil {
					t.Fatal(err)
				}
				same("the pass after a save failed " + step)
			}

			same("at open")
			for range tc.keep + 1 {
				mustSave()
			}
			squat := cfg.CheckpointPath + tc.block
			if err := os.Remove(squat); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(squat, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			failSave(tc.step)
			if err := os.RemoveAll(squat); err != nil {
				t.Fatal(err)
			}
			mustSave()
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			failSave("writing the new file")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for range tc.keep {
				mustSave()
			}

			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.keep > 2 { // an empty middle slot: the save's rotation leaves the slot behind it
				if err := os.Remove(cfg.CheckpointPath + ".1"); err != nil {
					t.Fatal(err)
				}
			}
			if p, err = NewPipeline(cfg); err != nil {
				t.Fatal(err)
			}
			same("after reopen")
			mustSave()

			// The newest generation stops restoring: memory keeps its sequence.
			if err := os.Truncate(cfg.CheckpointPath, 10); err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= tc.keep; i++ {
				if disk := diskGens(p); !gensAtLeastAsConservative(p.gens, disk) {
					t.Fatalf("%d saves past a damaged generation: pipeline remembers %v, less conservative than the files' %v", i, p.gens, disk)
				}
				if err := save(); err != nil {
					t.Fatal(err)
				}
			}
			same("once the damaged generation rotated out")

			seq, data, err := p.NewestSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			shipped := filepath.Join(t.TempDir(), "shipped.tds")
			if err := os.WriteFile(shipped, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := p.InstallSnapshot(shipped, seq); err != nil {
				t.Fatal(err)
			}
			same("after InstallSnapshot")
			if p.gens[0] != seq || slices.ContainsFunc(p.gens[1:], func(s uint64) bool { return s != noGen }) {
				t.Fatalf("after installing seq %d the pipeline remembers %v", seq, p.gens)
			}
			mustSave()
		})
	}
}

// TestCheckpointRetentionAllocBudget: in steady state a retention pass
// with nothing to truncate allocates nothing — it reads the generations
// from memory and walks the log's segment index, opening no checkpoint
// file and listing no directory.
func TestCheckpointRetentionAllocBudget(t *testing.T) {
	w := testWorkload(t, 8)
	cfg := pipelineConfig(t, w)
	cfg.WAL.SegmentBytes = 512
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, b := range w.Batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.advanceRetention(); err != nil { // truncate whatever the last checkpoint freed
		t.Fatal(err)
	}
	// A GC cycle inside the window may allocate on the runtime's behalf
	// (see TestSaveAllocBudget): collect first, keep the collector off.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	removed := p.log.Stats().Removed
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.advanceRetention(); err != nil {
			t.Fatal(err)
		}
	})
	if p.log.Stats().Removed != removed {
		t.Fatal("the steady-state pass removed segments: the window is not steady")
	}
	if allocs != 0 {
		t.Fatalf("a retention pass with nothing to truncate allocates %.1f objects, want 0", allocs)
	}
}
