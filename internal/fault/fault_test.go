package fault

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/tdgraph/tdgraph/internal/graph"
)

func sampleBatch(n int) []graph.Update {
	b := make([]graph.Update, n)
	for i := range b {
		b[i] = graph.Update{Edge: graph.Edge{
			Src:    graph.VertexID(i % 50),
			Dst:    graph.VertexID((i * 7) % 50),
			Weight: float32(i%9) + 1,
		}}
	}
	return b
}

func TestParseSpec(t *testing.T) {
	in, err := Parse("corrupt:0.5,oob,ckpt-flip:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Enabled(Corrupt) || in.Param(Corrupt) != 0.5 {
		t.Fatalf("corrupt: enabled=%v param=%v", in.Enabled(Corrupt), in.Param(Corrupt))
	}
	if !in.Enabled(OutOfRange) || in.Param(OutOfRange) != defaultParam[OutOfRange] {
		t.Fatalf("oob should use default param, got %v", in.Param(OutOfRange))
	}
	if !in.Enabled(CkptFlip) || in.Param(CkptFlip) != 4 {
		t.Fatalf("ckpt-flip param: %v", in.Param(CkptFlip))
	}
	if in.Enabled(Diverge) {
		t.Fatal("diverge should not be armed")
	}
	if _, err := Parse("hang", 1); err == nil {
		t.Fatal("hang injects nothing and must not parse")
	}
	if _, err := Parse("nonsense", 1); err == nil {
		t.Fatal("unknown class must error")
	}
	if _, err := Parse("corrupt:zebra", 1); err == nil {
		t.Fatal("bad param must error")
	}
	if in, err := Parse("  ", 1); err != nil || len(in.armed) != 0 {
		t.Fatalf("blank spec: %v %v", in.armed, err)
	}
}

func TestMutateBatchDeterministic(t *testing.T) {
	spec := "corrupt:0.2,dup:0.2,reorder,oob:0.2,badweight:0.2,selfloop:0.2"
	a, _ := Parse(spec, 42)
	b, _ := Parse(spec, 42)
	batch := sampleBatch(200)
	ma := a.MutateBatch(batch, 50)
	mb := b.MutateBatch(batch, 50)
	if len(ma) != len(mb) {
		t.Fatalf("lengths differ: %d vs %d", len(ma), len(mb))
	}
	for i := range ma {
		ea, eb := ma[i].Edge, mb[i].Edge
		// NaN != NaN, so compare bit patterns via formatting-free checks.
		if ea.Src != eb.Src || ea.Dst != eb.Dst ||
			math.Float32bits(ea.Weight) != math.Float32bits(eb.Weight) ||
			ma[i].Delete != mb[i].Delete {
			t.Fatalf("update %d differs: %+v vs %+v", i, ma[i], mb[i])
		}
	}
	if !reflect.DeepEqual(a.Injected(), b.Injected()) {
		t.Fatalf("counts differ: %v vs %v", a.Injected(), b.Injected())
	}
	if a.Total() == 0 {
		t.Fatal("expected some injections at these rates")
	}
	c, _ := Parse(spec, 43)
	mc := c.MutateBatch(batch, 50)
	same := len(mc) == len(ma)
	if same {
		for i := range mc {
			if mc[i].Edge.Src != ma[i].Edge.Src || mc[i].Edge.Dst != ma[i].Edge.Dst {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical mutations")
	}
}

func TestMutateBatchDoesNotModifyInput(t *testing.T) {
	in, _ := Parse("corrupt:1", 7)
	batch := sampleBatch(20)
	orig := make([]graph.Update, len(batch))
	copy(orig, batch)
	_ = in.MutateBatch(batch, 50)
	if !reflect.DeepEqual(batch, orig) {
		t.Fatal("MutateBatch modified its input")
	}
}

func TestMutateBatchBoundsOOBIDs(t *testing.T) {
	in, _ := Parse("oob:1", 3)
	nv := 50
	out := in.MutateBatch(sampleBatch(100), nv)
	sawOOB := false
	for _, u := range out {
		for _, v := range []graph.VertexID{u.Edge.Src, u.Edge.Dst} {
			if int(v) >= nv {
				sawOOB = true
				if int(v) >= 2*nv+64 {
					t.Fatalf("unbounded OOB ID %d (nv=%d)", v, nv)
				}
			}
		}
	}
	if !sawOOB {
		t.Fatal("rate-1 oob injected nothing")
	}
}

func TestMutateBatchDisarmedIsIdentity(t *testing.T) {
	in := New(9)
	batch := sampleBatch(30)
	out := in.MutateBatch(batch, 50)
	if !reflect.DeepEqual(out, batch) {
		t.Fatal("disarmed injector changed the batch")
	}
	if in.Total() != 0 {
		t.Fatal("disarmed injector counted injections")
	}
}

func TestCorruptCheckpoint(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 1000)

	trunc, _ := Parse("ckpt-trunc:0.3", 5)
	out := trunc.CorruptCheckpoint(data)
	if len(out) != 700 {
		t.Fatalf("truncated length %d, want 700", len(out))
	}
	if len(data) != 1000 {
		t.Fatal("input was modified")
	}

	// Zero fraction still tears at least one byte so the class always fires.
	zero, _ := Parse("ckpt-trunc:0", 5)
	if got := zero.CorruptCheckpoint(data); len(got) != 999 {
		t.Fatalf("zero-fraction truncate kept %d bytes", len(got))
	}

	flip, _ := Parse("ckpt-flip:4", 5)
	flipped := flip.CorruptCheckpoint(data)
	diff := 0
	for i := range flipped {
		if flipped[i] != data[i] {
			diff++
		}
	}
	if diff == 0 || diff > 4 {
		t.Fatalf("flipped %d bytes, want 1..4", diff)
	}

	flip2, _ := Parse("ckpt-flip:4", 5)
	if !bytes.Equal(flip2.CorruptCheckpoint(data), flipped) {
		t.Fatal("same seed produced different corruption")
	}
}

func TestCorruptStates(t *testing.T) {
	in, _ := Parse("diverge:3", 11)
	states := make([]float64, 100)
	idx := in.CorruptStates(states)
	if len(idx) != 3 {
		t.Fatalf("corrupted %d states, want 3", len(idx))
	}
	for _, i := range idx {
		if states[i] == 0 {
			t.Fatalf("state %d not corrupted", i)
		}
	}
	off := New(11)
	if got := off.CorruptStates(states); got != nil {
		t.Fatal("disarmed diverge corrupted states")
	}
}

func TestFaultyReader(t *testing.T) {
	in, _ := Parse("read-err:10", 1)
	r := in.Reader(strings.NewReader(strings.Repeat("x", 100)))
	got, err := io.ReadAll(r)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("read %d bytes before failure, want 10", len(got))
	}
	plain := New(1)
	src := strings.NewReader("ok")
	if plain.Reader(src) != io.Reader(src) {
		t.Fatal("disarmed Reader should return the input unchanged")
	}
}

func TestFaultyWriter(t *testing.T) {
	in, _ := Parse("write-err:10", 1)
	var buf bytes.Buffer
	w := in.Writer(&buf)
	n, err := w.Write(bytes.Repeat([]byte("y"), 100))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if n != 10 || buf.Len() != 10 {
		t.Fatalf("wrote %d bytes (buffer %d), want 10", n, buf.Len())
	}
	// Writes within the budget pass through.
	in2, _ := Parse("write-err:100", 1)
	var buf2 bytes.Buffer
	w2 := in2.Writer(&buf2)
	if n, err := w2.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("in-budget write: n=%d err=%v", n, err)
	}
}
