package fault

import (
	"bytes"
	"errors"
	"io"
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

func TestMutateBatchDeterministic(t *testing.T) {
	armed := func(seed int64) *Injector {
		in := New(seed)
		in.Arm(Duplicate, 0.2)
		in.Arm(Reorder, 1)
		in.Arm(OutOfRange, 0.2)
		in.Arm(SelfLoop, 0.2)
		return in
	}
	a, b := armed(42), armed(42)
	batch := sampleBatch(200)
	ma := a.MutateBatch(batch, 50)
	mb := b.MutateBatch(batch, 50)
	if len(ma) != len(mb) {
		t.Fatalf("lengths differ: %d vs %d", len(ma), len(mb))
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("update %d differs: %+v vs %+v", i, ma[i], mb[i])
		}
	}
	if len(ma) == len(batch) {
		t.Fatal("dup at 0.2 duplicated nothing across 200 updates")
	}
	c := armed(43)
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
	in := New(7)
	in.Arm(OutOfRange, 1)
	in.Arm(SelfLoop, 1)
	in.Arm(Duplicate, 1)
	in.Arm(Reorder, 1)
	batch := sampleBatch(20)
	orig := make([]graph.Update, len(batch))
	copy(orig, batch)
	_ = in.MutateBatch(batch, 50)
	if !reflect.DeepEqual(batch, orig) {
		t.Fatal("MutateBatch modified its input")
	}
}

func TestMutateBatchBoundsOOBIDs(t *testing.T) {
	in := New(3)
	in.Arm(OutOfRange, 1)
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
}

func TestCorruptCheckpoint(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 1000)

	trunc := New(5)
	trunc.Arm(CkptTruncate, 0.3)
	out := trunc.CorruptCheckpoint(data)
	if len(out) != 700 {
		t.Fatalf("truncated length %d, want 700", len(out))
	}
	if len(data) != 1000 {
		t.Fatal("input was modified")
	}

	// Zero fraction still tears at least one byte so the class always fires.
	zero := New(5)
	zero.Arm(CkptTruncate, 0)
	if got := zero.CorruptCheckpoint(data); len(got) != 999 {
		t.Fatalf("zero-fraction truncate kept %d bytes", len(got))
	}

	flip := New(5)
	flip.Arm(CkptFlip, 4)
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

	flip2 := New(5)
	flip2.Arm(CkptFlip, 4)
	if !bytes.Equal(flip2.CorruptCheckpoint(data), flipped) {
		t.Fatal("same seed produced different corruption")
	}
}

func TestFaultyReader(t *testing.T) {
	in := New(1)
	in.Arm(ReadErr, 10)
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
	in := New(1)
	in.Arm(WriteErr, 10)
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
	in2 := New(1)
	in2.Arm(WriteErr, 100)
	var buf2 bytes.Buffer
	w2 := in2.Writer(&buf2)
	if n, err := w2.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("in-budget write: n=%d err=%v", n, err)
	}
}
