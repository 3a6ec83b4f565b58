package fault

import (
	"errors"
	"io"
	"net"
	"testing"
)

// pump reads frames of fixed size n from c until it closes, returning
// them in arrival order.
func pump(c net.Conn, n int) <-chan [][]byte {
	out := make(chan [][]byte, 1)
	go func() {
		var frames [][]byte
		for {
			buf := make([]byte, n)
			if _, err := io.ReadFull(c, buf); err != nil {
				out <- frames
				return
			}
			frames = append(frames, buf)
		}
	}()
	return out
}

func frame(b byte, n int) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = b
	}
	return f
}

// dupRun writes n frames through a connection duplicating at
// rate and returns the frame ids in the order the wire saw them.
func dupRun(t *testing.T, rate float64, n byte) []byte {
	a, b := net.Pipe()
	fc := NewConn(a, 7)
	fc.Dup(rate)
	got := pump(b, 4)
	for i := byte(0); i < n; i++ {
		if _, err := fc.Write(frame(i, 4)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	fc.Close()
	var ids []byte
	for _, f := range <-got {
		ids = append(ids, f[0])
	}
	return ids
}

// TestConnDup: duplicated frames arrive twice, in order.
func TestConnDup(t *testing.T) {
	if ids := dupRun(t, 1, 3); string(ids) != string([]byte{0, 0, 1, 1, 2, 2}) {
		t.Fatalf("Dup(1): wire saw %v, want [0 0 1 1 2 2]", ids)
	}
}

// TestConnDupIsDeterministic: at a rate below one the same seed
// duplicates the same frames.
func TestConnDupIsDeterministic(t *testing.T) {
	first, second := dupRun(t, 0.3, 20), dupRun(t, 0.3, 20)
	if len(first) == 20 {
		t.Fatal("Dup(0.3) duplicated nothing across 20 frames")
	}
	if string(first) != string(second) {
		t.Fatalf("same seed produced different duplicate schedules: %v vs %v", first, second)
	}
}

// TestConnTruncateMidFrame: the write crossing the byte budget delivers
// only a prefix and the connection dies — a record torn on the wire.
func TestConnTruncateMidFrame(t *testing.T) {
	a, b := net.Pipe()
	fc := NewConn(a, 5)
	fc.Trunc(10) // 2 whole 4-byte frames + 2 bytes of the third

	type res struct {
		n   int
		err error
	}
	done := make(chan res, 1)
	go func() {
		buf := make([]byte, 64)
		total := 0
		for {
			n, err := b.Read(buf[total:])
			total += n
			if err != nil {
				done <- res{total, err}
				return
			}
		}
	}()
	var werr error
	for i := byte(0); i < 4; i++ {
		if _, err := fc.Write(frame(i, 4)); err != nil {
			werr = err
			break
		}
	}
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("want ErrInjected from truncated write, got %v", werr)
	}
	r := <-done
	if r.n != 10 {
		t.Fatalf("wire saw %d bytes, want exactly 10 (truncated mid-frame)", r.n)
	}
}

// TestConnPartitionRecv: the read-side partition is asymmetric — after
// the PartitionRecv count every Read fails with ErrInjected while Writes
// keep flowing, the one-way split where a node can send but never
// hear. The deafness is permanent.
func TestConnPartitionRecv(t *testing.T) {
	a, b := net.Pipe()
	fc := NewConn(a, 3)
	fc.PartitionRecv(2)
	go func() {
		for i := byte(0); i < 2; i++ {
			b.Write(frame(i, 4))
		}
	}()
	buf := make([]byte, 4)
	for i := byte(0); i < 2; i++ {
		if _, err := fc.Read(buf); err != nil {
			t.Fatalf("read %d before the partition: %v", i, err)
		}
		if buf[0] != i {
			t.Fatalf("read %d delivered frame %d", i, buf[0])
		}
	}
	if _, err := fc.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after the partition: want ErrInjected, got %v", err)
	}

	// The send side is untouched: the deaf node still talks.
	got := pump(b, 4)
	if _, err := fc.Write(frame(9, 4)); err != nil {
		t.Fatalf("write during a recv partition: %v", err)
	}
	// And it stays deaf: the trip is forever.
	if _, err := fc.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read stays partitioned: want ErrInjected, got %v", err)
	}
	fc.Close()
	if frames := <-got; len(frames) != 1 || frames[0][0] != 9 {
		t.Fatalf("send side delivered %d frames, want just frame 9", len(frames))
	}
}
