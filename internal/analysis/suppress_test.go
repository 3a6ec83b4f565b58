package analysis

import (
	"strings"
	"testing"
)

// The suppression tests run the full suite over type-checked in-memory
// sources of a replica package; clockseam, which flags a raw time.Now
// there, is the probe check.

const clockSrc = "package probe\n\nimport \"time\"\n\nfunc stamp() time.Time {\n\t%s\n\treturn time.Now()\n}\n"

// TestSuppressionDirective is the table-driven contract for
// //tdgraph:allow: honored with a known check and a reason, rejected
// otherwise, and never silently swallowing a different check's
// finding.
func TestSuppressionDirective(t *testing.T) {
	for _, tc := range []struct {
		name string
		line string // inserted on the line above the time.Now call
		// expected surviving diagnostics as "check" names, in order
		want []string
	}{
		{
			name: "no directive leaves the finding",
			line: "",
			want: []string{"clockseam"},
		},
		{
			name: "directive with reason suppresses",
			line: "//tdgraph:allow clockseam a wall-clock stamp for a log line",
			want: nil,
		},
		{
			name: "unknown check name is rejected and suppresses nothing",
			line: "//tdgraph:allow clokseam typo in the check name",
			want: []string{"clockseam", "directive"},
		},
		{
			name: "missing reason is rejected and suppresses nothing",
			line: "//tdgraph:allow clockseam",
			want: []string{"clockseam", "directive"},
		},
		{
			name: "empty directive is malformed",
			line: "//tdgraph:allow",
			want: []string{"clockseam", "directive"},
		},
		{
			name: "directive for a different check suppresses nothing",
			line: "//tdgraph:allow errwrap wrong check entirely",
			want: []string{"clockseam"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.Replace(clockSrc, "%s", tc.line, 1)
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
	src := strings.Replace(clockSrc, "\n\t%s\n\treturn time.Now()", "\n\treturn time.Now() //tdgraph:allow clockseam trailing form", 1)
	if diags := suiteFindings(t, src); len(diags) != 0 {
		t.Fatalf("trailing same-line directive did not suppress: %v", diags)
	}
}

// TestSuppressionDoesNotLeakToOtherLines pins the blast radius: a
// directive covers its own line and the next, nothing further.
func TestSuppressionDoesNotLeakToOtherLines(t *testing.T) {
	src := strings.Replace(clockSrc, "%s", "//tdgraph:allow clockseam covers only the next line\n", 1)
	diags := suiteFindings(t, src)
	if len(diags) != 1 || diags[0].Check != "clockseam" {
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
