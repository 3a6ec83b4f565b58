package replica

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Type: FrameHello, Term: 3},
		{Type: FrameWelcome, Term: 3, Seq: 17, Orig: 2},
		{Type: FrameRecord, Term: 3, Seq: 18, Orig: 3, Payload: []byte{1, 2, 3, 4, 5}},
		{Type: FrameAck, Term: 3, Seq: 18},
		{Type: FrameReject, Term: 9, Seq: 12},
		{Type: FrameRecord, Term: 1, Seq: 1, Payload: nil},
		{Type: FrameProbe},
		{Type: FrameState, Term: 4, Seq: 33, Orig: 4},
		{Type: FrameRecordMore, Term: 3, Seq: 19, Orig: 3, Payload: []byte{6, 7}},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame(%+v): %v", f, err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame(%+v): %v", f, err)
		}
		if got.Type != f.Type || got.Term != f.Term || got.Seq != f.Seq || got.Orig != f.Orig || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip changed the frame: sent %+v, got %+v", f, got)
		}
	}
}

func TestFrameDetectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameRecord, Term: 2, Seq: 5, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	for name, mutate := range map[string]func([]byte) []byte{
		"flipped payload bit": func(b []byte) []byte { b[frameHdrSize+2] ^= 0x10; return b },
		"flipped seq bit":     func(b []byte) []byte { b[14] ^= 0x01; return b },
		"wrong magic":         func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad type":            func(b []byte) []byte { b[4] = 99; return b },
	} {
		mutated := mutate(append([]byte(nil), wire...))
		_, err := ReadFrame(bytes.NewReader(mutated))
		var fe *FrameError
		if !errors.As(err, &fe) || !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want *FrameError wrapping ErrBadFrame, got %v", name, err)
		}
	}

	// Truncation mid-frame is a transport error, not ErrBadFrame.
	_, err := ReadFrame(bytes.NewReader(wire[:len(wire)-3]))
	var fe *FrameError
	if !errors.As(err, &fe) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: want *FrameError wrapping ErrUnexpectedEOF, got %v", err)
	}

	// A cleanly closed stream between frames is bare io.EOF.
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: want io.EOF, got %v", err)
	}
}

// TestReadFrameAllocs: ReadFrame reads the header through a pooled
// buffer, so a frame without a payload allocates nothing and one with a
// payload allocates that payload alone. The session codec allocates no
// object at all: appendFrame onto and readFrameInto into a reused
// buffer, and parseFrame in place.
func TestReadFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool sheds buffers on purpose")
	}
	var bare [][]byte
	for typ := byte(FrameHello); typ <= FrameRecordMore; typ++ {
		bare = append(bare, appendFrame(nil, Frame{Type: typ, Term: 3, Seq: 17, Orig: 2}))
	}
	record := appendFrame(nil, Frame{Type: FrameRecord, Term: 3, Seq: 18, Orig: 3, Payload: make([]byte, 100)})

	var rd bytes.Reader
	read := func(wire []byte) {
		rd.Reset(wire)
		if _, err := ReadFrame(&rd); err != nil {
			t.Fatal(err)
		}
	}
	// A GC cycle empties the pool and may allocate on the runtime's
	// behalf: collect first, keep the collector off, warm the pool.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	read(record)
	for _, wire := range bare {
		if allocs := testing.AllocsPerRun(100, func() { read(wire) }); allocs != 0 {
			t.Errorf("ReadFrame of a payload-less type-%d frame allocates %.1f objects, want 0", wire[4], allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { read(record) }); allocs != 1 {
		t.Errorf("ReadFrame of a record allocates %.1f objects, want 1: its payload", allocs)
	}
	var buf []byte
	for name, codec := range map[string]func(){
		"appendFrame":   func() { buf = appendFrame(buf[:0], Frame{Type: FrameRecord, Payload: record[frameHdrSize:]}) },
		"readFrameInto": func() { rd.Reset(record); readFrameInto(&rd, &buf) },
		"parseFrame":    func() { parseFrame(record) },
	} {
		if allocs := testing.AllocsPerRun(100, codec); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per record frame, want 0", name, allocs)
		}
	}
}

// TestReadFramePayloadOwned: a payload ReadFrame returned is the
// caller's. Later reads and writes, which reuse the pooled buffers,
// never write into it.
func TestReadFramePayloadOwned(t *testing.T) {
	var wire bytes.Buffer
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 16+i) }
	for i := 0; i < 32; i++ {
		if err := WriteFrame(&wire, Frame{Type: FrameRecord, Seq: uint64(i + 1), Payload: payload(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []Frame
	for {
		f, err := ReadFrame(&wire)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f)
		// Recycle a pooled buffer full of other bytes.
		if err := WriteFrame(io.Discard, Frame{Type: FrameRecord, Payload: bytes.Repeat([]byte{0xEE}, 256)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 32 {
		t.Fatalf("read %d frames, want 32", len(got))
	}
	for i, f := range got {
		if !bytes.Equal(f.Payload, payload(i)) {
			t.Errorf("frame %d's payload changed after later reads: %x", i+1, f.Payload)
		}
	}
}

// FuzzReplicaFrame: arbitrary bytes through ReadFrame never panic and
// fail only with typed errors; decodable frames re-encode to the same
// bytes consumed; and parseFrame — the in-place parser a client session
// gathers commit groups with — accepts exactly the frames ReadFrame
// accepts, field for field.
func FuzzReplicaFrame(f *testing.F) {
	f.Add([]byte{})
	for _, fr := range []Frame{
		{Type: FrameHello, Term: 1},
		{Type: FrameRecord, Term: 2, Seq: 3, Payload: []byte{0, 1, 2}},
		{Type: FrameAck, Term: 2, Seq: 3},
		{Type: FrameRecordMore, Term: 2, Seq: 4, Orig: 1, Payload: []byte{9}},
	} {
		var buf bytes.Buffer
		WriteFrame(&buf, fr)
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		inPlace, n := parseFrame(data)
		if (err == nil) != (n > 0) || n > 0 && (inPlace.Type != fr.Type || inPlace.Term != fr.Term || inPlace.Seq != fr.Seq ||
			inPlace.Orig != fr.Orig || !bytes.Equal(inPlace.Payload, fr.Payload) || n != frameHdrSize+len(fr.Payload)) {
			t.Fatalf("parseFrame took %d bytes as %+v where ReadFrame says %+v, %v", n, inPlace, fr, err)
		}
		if err != nil {
			if err == io.EOF {
				return
			}
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("untyped frame error: %v", err)
			}
			return
		}
		// A frame that decoded must re-encode byte-identically to its
		// wire prefix (CRC pins every field).
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("decode/encode not idempotent:\n in %x\nout %x", data[:buf.Len()], buf.Bytes())
		}
	})
}
