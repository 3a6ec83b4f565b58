package analysis

import (
	"strings"
	"testing"
)

// The suppression tests run the full suite over type-checked in-memory
// sources; syncack, which matches its append, barrier and ack calls by
// name, is the probe check of choice here.

const ackBody = `
func ackAfterAppend(l *log, conn any) error {
	if err := l.Append(1, nil); err != nil {
		return err
	}
	%s
	return WriteFrame(conn, Frame{Type: FrameAck, Seq: 1})
}
`

// TestSuppressionDirective is the table-driven contract for
// //tdgraph:allow: honored with a known check and a reason, rejected
// otherwise, and never silently swallowing a different check's
// finding.
func TestSuppressionDirective(t *testing.T) {
	header := "package synctest\n\ntype log struct{}\nfunc (l *log) Append(seq uint64, b []byte) error { return nil }\ntype Frame struct{ Type int; Seq uint64 }\nconst FrameAck = 1\nfunc WriteFrame(conn any, f any) error { return nil }\n"

	for _, tc := range []struct {
		name string
		line string // inserted on the line above the ack write
		// expected surviving diagnostics as "check" names, in order
		want []string
	}{
		{
			name: "no directive leaves the finding",
			line: "",
			want: []string{"syncack"},
		},
		{
			name: "directive with reason suppresses",
			line: "//tdgraph:allow syncack re-ack of an already durable sequence",
			want: nil,
		},
		{
			name: "unknown check name is rejected and suppresses nothing",
			line: "//tdgraph:allow syncak typo in the check name",
			want: []string{"syncack", "directive"},
		},
		{
			name: "missing reason is rejected and suppresses nothing",
			line: "//tdgraph:allow syncack",
			want: []string{"syncack", "directive"},
		},
		{
			name: "empty directive is malformed",
			line: "//tdgraph:allow",
			want: []string{"syncack", "directive"},
		},
		{
			name: "directive for a different check suppresses nothing",
			line: "//tdgraph:allow errwrap wrong check entirely",
			want: []string{"syncack"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := header + strings.Replace(ackBody, "%s", tc.line, 1)
			diags := suiteFindings(t, src)
			var got []string
			for _, d := range diags {
				got = append(got, d.Check)
			}
			// Order-insensitive compare: sortDiagnostics interleaves by
			// position, and the directive diag sits above the finding.
			if !sameMultiset(got, tc.want) {
				t.Fatalf("got checks %v, want %v\ndiags: %v", got, tc.want, diags)
			}
		})
	}
}

// TestSuppressionSameLine pins the trailing-comment form.
func TestSuppressionSameLine(t *testing.T) {
	src := `package synctest

type log struct{}

func (l *log) Append(seq uint64, b []byte) error { return nil }

type Frame struct {
	Type int
	Seq  uint64
}

const FrameAck = 1

func WriteFrame(conn any, f any) error { return nil }

func ack(l *log, conn any) error {
	l.Append(1, nil)
	return WriteFrame(conn, Frame{Type: FrameAck, Seq: 1}) //tdgraph:allow syncack trailing form
}
`
	diags := suiteFindings(t, src)
	if len(diags) != 0 {
		t.Fatalf("trailing same-line directive did not suppress: %v", diags)
	}
}

// TestSuppressionDoesNotLeakToOtherLines pins the blast radius: a
// directive covers its own line and the next, nothing further.
func TestSuppressionDoesNotLeakToOtherLines(t *testing.T) {
	src := `package synctest

type log struct{}

func (l *log) Append(seq uint64, b []byte) error { return nil }

type Frame struct {
	Type int
	Seq  uint64
}

const FrameAck = 1

func WriteFrame(conn any, f any) error { return nil }

func ack(l *log, conn any) error {
	l.Append(1, nil)
	//tdgraph:allow syncack covers only the next line

	return WriteFrame(conn, Frame{Type: FrameAck, Seq: 1})
}
`
	diags := suiteFindings(t, src)
	if len(diags) != 1 || diags[0].Check != "syncack" {
		t.Fatalf("directive two lines above must not suppress; got %v", diags)
	}
}

// suiteFindings runs the full suite over src, type-checked as a
// replica package.
func suiteFindings(t *testing.T, src string) []Diagnostic {
	t.Helper()
	pkg := loadTestPackage(t, "github.com/tdgraph/tdgraph/internal/replica", testFile{"src.go", src})
	return RunSuite(Checks(), []*Package{pkg}, SuiteOptions{}).Findings
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int)
	for _, x := range a {
		count[x]++
	}
	for _, x := range b {
		count[x]--
		if count[x] < 0 {
			return false
		}
	}
	return true
}
