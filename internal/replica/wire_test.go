package replica

import (
	"bytes"
	"errors"
	"io"
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
