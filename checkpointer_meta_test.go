package tdgraph_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// twoGenerations saves "seq-10" then "seq-20" and rewrites the newest
// generation's file through mangle (nil leaves it alone).
func twoGenerations(t *testing.T, mangle func([]byte) []byte) (*tdgraph.Checkpointer, *tdgraph.Session) {
	t.Helper()
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ck := tdgraph.NewCheckpointer(filepath.Join(t.TempDir(), "ckpt.tds"))
	for _, meta := range []string{"seq-10", "seq-20"} {
		if err := ck.SaveWithMeta(s, []byte(meta)); err != nil {
			t.Fatal(err)
		}
	}
	if mangle != nil {
		data, err := os.ReadFile(ck.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ck.Path, mangle(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return ck, s
}

// TestCheckpointerMetaRotation: a generation is one file that carries
// its own metadata, LoadWithMeta returns the newest, and Metas exposes
// the retained history newest-first from the headers alone.
func TestCheckpointerMetaRotation(t *testing.T) {
	ck, s := twoGenerations(t, nil)
	restored, meta, skipped, err := ck.LoadWithMeta(tdgraph.NewCC(), tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("clean generations skipped: %v", skipped)
	}
	if !bytes.Equal(meta, []byte("seq-20")) {
		t.Fatalf("meta = %q, want the newest generation's", meta)
	}
	if restored.NumEdges() != s.NumEdges() {
		t.Fatal("restored session has wrong shape")
	}
	metas := ck.Metas()
	if len(metas) != 2 || !bytes.Equal(metas[0], []byte("seq-20")) || !bytes.Equal(metas[1], []byte("seq-10")) {
		t.Fatalf("Metas() = %q, want newest-first history", metas)
	}
	entries, err := os.ReadDir(filepath.Dir(ck.Path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "ckpt.tds" || entries[1].Name() != "ckpt.tds.1" {
		t.Fatalf("checkpoint directory holds %v, want one file per generation", entries)
	}
}

// damagedNewestFallsBack checks the shared outcome of a newest
// generation whose meta block is unreadable: that generation is skipped
// with a typed meta-stage error wrapping sentinel, the older one is
// restored with its own metadata, the degradation is counted, and Metas
// reports nil in the damaged slot.
func damagedNewestFallsBack(t *testing.T, mangle func([]byte) []byte, sentinel error) {
	t.Helper()
	ck, _ := twoGenerations(t, mangle)
	restored, meta, skipped, err := ck.LoadWithMeta(tdgraph.NewCC(), tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(meta, []byte("seq-10")) {
		t.Fatalf("meta = %q, want the older good generation's", meta)
	}
	var ce *tdgraph.CheckpointError
	if len(skipped) != 1 || !errors.As(skipped[0].Err, &ce) || ce.Stage != "meta" || !errors.Is(ce, sentinel) {
		t.Fatalf("skipped %v, want the newest generation with a meta-stage %v", skipped, sentinel)
	}
	if restored.RobustStats().Get(stats.CtrCheckpointRecovered) != 1 {
		t.Fatal("fallback restore not counted")
	}
	if metas := ck.Metas(); metas[0] != nil || !bytes.Equal(metas[1], []byte("seq-10")) {
		t.Fatalf("Metas() = %q, want [nil seq-10]", metas)
	}
}

// TestCheckpointerMetaMissingFallsBack: a newest generation that ends
// inside its meta block — in the payload, or after it with the trailing
// CRC missing (only disk damage can do either; the atomic save never
// exposes a partial file) — cannot say what it covers, so recovery skips
// it rather than guessing.
func TestCheckpointerMetaMissingFallsBack(t *testing.T) {
	for name, cut := range map[string]func(meta blockSpan) int{
		"inside the payload":              func(meta blockSpan) int { return meta.Payload + 3 },
		"between the payload and its CRC": func(meta blockSpan) int { return meta.CRC },
		"inside the CRC":                  func(meta blockSpan) int { return meta.CRC + 3 },
	} {
		t.Run(name, func(t *testing.T) {
			damagedNewestFallsBack(t, func(b []byte) []byte {
				meta, _, _ := ckptBlocks(t, b)
				return b[:cut(meta)]
			}, tdgraph.ErrCheckpointTruncated)
		})
	}
}

// TestCheckpointerMetaCorruptionTyped: a bit flipped inside the meta
// payload, or inside the CRC that trails it, is caught before the
// payload is believed.
func TestCheckpointerMetaCorruptionTyped(t *testing.T) {
	for name, at := range map[string]func(meta blockSpan) int{
		"payload":      func(meta blockSpan) int { return meta.CRC - 1 }, // last byte of "seq-20"
		"trailing CRC": func(meta blockSpan) int { return meta.CRC + 2 },
	} {
		t.Run(name, func(t *testing.T) {
			damagedNewestFallsBack(t, func(b []byte) []byte {
				meta, _, _ := ckptBlocks(t, b)
				b[at(meta)] ^= 0xFF
				return b
			}, tdgraph.ErrCheckpointCorrupt)
		})
	}
}

// TestCheckpointerNoValidPair: when every generation is unreadable —
// here, the newest a whole file in the retired v3 framing and the older
// one still carrying the retired v2 version — LoadWithMeta and
// NewestWithMeta fail with the typed header-stage unsupported-version
// error for each instead of guessing, so the caller bootstraps and
// replays.
func TestCheckpointerNoValidPair(t *testing.T) {
	ck, _ := twoGenerations(t, nil)
	for path, retire := range map[string]func([]byte) []byte{
		ck.Path:        func(b []byte) []byte { return asV3(t, b) },
		ck.Path + ".1": func(b []byte) []byte { b[4] = 2; return b }, // header version field
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, retire(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, skipped, err := ck.LoadWithMeta(tdgraph.NewCC(), tdgraph.SessionOptions{})
	if err == nil || len(skipped) != 2 {
		t.Fatalf("LoadWithMeta over v3 and v2 files: err %v, skipped %v; want both skipped", err, skipped)
	}
	for i, want := range []string{"unsupported version 3", "unsupported version 2"} {
		var ce *tdgraph.CheckpointError
		if err := skipped[i].Err; !errors.As(err, &ce) || ce.Stage != "header" ||
			!errors.Is(err, tdgraph.ErrCheckpointCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("generation %d skipped with %v, want a typed header-stage corruption saying %q", i, err, want)
		}
	}
	if !errors.Is(err, skipped[0].Err) {
		t.Fatalf("LoadWithMeta = %v, want the newest generation's refusal", err)
	}
	if _, _, err := ck.NewestWithMeta(); !errors.Is(err, tdgraph.ErrCheckpointCorrupt) {
		t.Fatalf("NewestWithMeta shipped a retired-format file: %v", err)
	}
}
