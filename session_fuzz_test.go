package tdgraph_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
)

// FuzzSessionLoad checks the checkpoint loader never panics and never
// leaks a raw io error: every rejection must be typed, and anything it
// accepts must be a coherent session (mirroring FuzzLoadSNAP for graphs,
// extended over the checkpoint's state block).
func FuzzSessionLoad(f *testing.F) {
	// Seed with a real checkpoint plus hostile variants of it.
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		f.Fatal(err)
	}
	valid := savedWithMeta(f, s, "seq-0042")
	meta, graph, state := ckptBlocks(f, valid)
	mangled := func(mangle func([]byte)) []byte {
		out := append([]byte(nil), valid...)
		mangle(out)
		return out
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                  // torn mid-file
	f.Add(valid[:7])                                             // torn inside the header
	f.Add([]byte{})                                              // empty
	f.Add([]byte{1, 2, 3})                                       // garbage
	f.Add(mangled(func(b []byte) { b[state.CRC-3] ^= 0x40 }))    // bit flip in the state payload
	f.Add(mangled(func(b []byte) { b[0] ^= 0xFF }))              // bad magic
	f.Add(valid[:meta.Payload+4])                                // torn inside the meta payload
	f.Add(mangled(func(b []byte) { b[meta.Payload+2] ^= 0x40 })) // bit flip in the meta payload
	f.Add(valid[:graph.CRC])                                     // torn between the graph payload and its trailing CRC
	f.Add(mangled(func(b []byte) { b[graph.CRC+1] ^= 0x40 }))    // bit flip in a trailing CRC
	f.Add(mangled(func(b []byte) { b[4] = 2 }))                  // the retired v2 header
	f.Add(asV3(f, valid))                                        // a whole file in the retired v3 framing

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := tdgraph.LoadSession(tdgraph.NewCC(), bytes.NewReader(data), tdgraph.SessionOptions{})
		if err != nil {
			// Rejections must be typed checkpoint errors, never the raw
			// io sentinels the reader produced.
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				t.Fatalf("raw io error leaked: %v", err)
			}
			var ce *tdgraph.CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped load error %T: %v", err, err)
			}
			if !errors.Is(err, tdgraph.ErrCheckpointTruncated) && !errors.Is(err, tdgraph.ErrCheckpointCorrupt) {
				t.Fatalf("checkpoint error without sentinel: %v", err)
			}
			return
		}
		// Anything accepted must be internally coherent and streamable.
		if restored.NumVertices() != len(restored.States()) {
			t.Fatalf("restored session has %d vertices but %d states",
				restored.NumVertices(), len(restored.States()))
		}
		if err := restored.Graph().Validate(); err != nil {
			t.Fatalf("accepted checkpoint with invalid graph: %v", err)
		}
	})
}
