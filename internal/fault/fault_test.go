package fault

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
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

var allMutations = Mutation{OutOfRange: 0.2, SelfLoop: 0.2, Duplicate: 0.2, Reorder: true}

func mutate(seed int64, batch []graph.Update, m Mutation) []graph.Update {
	return MutateBatch(rand.New(rand.NewSource(seed)), batch, 50, m)
}

func TestMutateBatchDeterministic(t *testing.T) {
	batch := sampleBatch(200)
	ma := mutate(42, batch, allMutations)
	mb := mutate(42, batch, allMutations)
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
	mc := mutate(43, batch, allMutations)
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
	batch := sampleBatch(20)
	orig := make([]graph.Update, len(batch))
	copy(orig, batch)
	_ = mutate(7, batch, Mutation{OutOfRange: 1, SelfLoop: 1, Duplicate: 1, Reorder: true})
	if !reflect.DeepEqual(batch, orig) {
		t.Fatal("MutateBatch modified its input")
	}
}

func TestMutateBatchBoundsOOBIDs(t *testing.T) {
	nv := 50
	out := mutate(3, sampleBatch(100), Mutation{OutOfRange: 1})
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
	batch := sampleBatch(30)
	if out := mutate(9, batch, Mutation{}); !reflect.DeepEqual(out, batch) {
		t.Fatal("an empty mutation changed the batch")
	}
}

func TestCorruptCheckpoint(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 1000)

	out := TruncateTail(data, 0.3)
	if len(out) != 700 {
		t.Fatalf("truncated length %d, want 700", len(out))
	}
	if len(data) != 1000 {
		t.Fatal("input was modified")
	}

	// Zero fraction still tears at least one byte so the fault always fires.
	if got := TruncateTail(data, 0); len(got) != 999 {
		t.Fatalf("zero-fraction truncate kept %d bytes", len(got))
	}

	flipped := FlipBits(data, 4, 5)
	diff := 0
	for i := range flipped {
		if flipped[i] != data[i] {
			diff++
		}
	}
	if diff == 0 || diff > 4 {
		t.Fatalf("flipped %d bytes, want 1..4", diff)
	}

	if !bytes.Equal(FlipBits(data, 4, 5), flipped) {
		t.Fatal("same seed produced different corruption")
	}
}

func TestFaultyReader(t *testing.T) {
	got, err := io.ReadAll(Reader(strings.NewReader(strings.Repeat("x", 100)), 10))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("read %d bytes before failure, want 10", len(got))
	}
}

func TestFaultyWriter(t *testing.T) {
	var buf bytes.Buffer
	n, err := Writer(&buf, 10).Write(bytes.Repeat([]byte("y"), 100))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if n != 10 || buf.Len() != 10 {
		t.Fatalf("wrote %d bytes (buffer %d), want 10", n, buf.Len())
	}
	// Writes within the budget pass through.
	if n, err := Writer(&bytes.Buffer{}, 100).Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("in-budget write: n=%d err=%v", n, err)
	}
}
