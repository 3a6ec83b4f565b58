package graph_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// FuzzLoadSNAP checks the parser never panics and that anything it
// accepts produces a structurally valid graph when built.
func FuzzLoadSNAP(f *testing.F) {
	f.Add("1 2\n2 3 1.5\n# c\n")
	f.Add("")
	f.Add("0 0\n")
	f.Add("18446744073709551615 1\n")
	f.Add("1\t2\t-3.5\n\n\n9 9\n")
	f.Fuzz(func(t *testing.T, input string) {
		edges, n, err := graph.LoadSNAP(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, e := range edges {
			if int(e.Src) >= n || int(e.Dst) >= n {
				t.Fatalf("edge %+v out of remapped range %d", e, n)
			}
		}
		// Anything accepted must build into a valid snapshot and
		// survive a binary round trip.
		s := graph.NewStoreFromEdges(n, edges).Seal()
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted input built invalid snapshot: %v", err)
		}
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := graph.ReadBinary(buf.Bytes()); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
