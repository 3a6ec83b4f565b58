package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// TestFaultSuiteCoversAllClasses runs the full suite once and checks
// every acceptance class produced a row with a resolved outcome.
func TestFaultSuiteCoversAllClasses(t *testing.T) {
	rows, err := RunFaultSuite(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"ingest/corrupt", "ingest/dup", "ingest/reorder",
		"ingest/oob", "ingest/badweight", "ingest/selfloop",
		"checkpoint/ckpt-trunc", "checkpoint/ckpt-flip",
		"io/write-err", "io/read-err",
		"state/diverge", "sim/hang", "bench/faults",
	}
	if len(rows) != len(want) {
		t.Fatalf("suite produced %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Scenario != want[i] {
			t.Fatalf("row %d: scenario %q, want %q", i, r.Scenario, want[i])
		}
		if r.Outcome == "" {
			t.Fatalf("%s: empty outcome", r.Scenario)
		}
	}
}

// TestFaultSuiteDeterministic renders the suite twice with a fixed
// injector seed: the output must be byte-identical.
func TestFaultSuiteDeterministic(t *testing.T) {
	o := Options{Seed: 3}
	var a, b bytes.Buffer
	if err := expRobust(&a, o); err != nil {
		t.Fatalf("first run: %v", err)
	}
	ClearCache()
	if err := expRobust(&b, o); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two runs with one seed differ:\n%s\n--- vs ---\n%s", a.String(), b.String())
	}
	ClearCache()
}

// TestFaultSpecInPrepKey guards the cache key: two specs differing only
// in fault configuration must prepare distinct cases.
func TestFaultSpecInPrepKey(t *testing.T) {
	s := Spec{Dataset: "AZ", Scale: 0.05, Algo: "sssp", Scheme: "TDGraph-H"}
	f := s
	f.Faults = "corrupt"
	if prepKey(s.withDefaults()) == prepKey(f.withDefaults()) {
		t.Fatal("fault spec absent from the preparation cache key")
	}
	p1, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Prepare(f)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("faulted and clean specs shared one prepared case")
	}
	if len(p2.Batch) == len(p1.Batch) {
		// Injection duplicates some updates and validation drops others;
		// identical lengths would suggest the injector never ran. Guard
		// loosely — equality of content is what must differ.
		same := true
		for i := range p1.Batch {
			if p1.Batch[i] != p2.Batch[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("faulted batch is identical to the clean batch")
		}
	}
	ClearCache()
}

// TestRunCtxRejectsBadFaultSpec checks flag-style errors surface cleanly.
func TestRunCtxRejectsBadFaultSpec(t *testing.T) {
	s := Spec{Dataset: "AZ", Scale: 0.05, Algo: "sssp", Scheme: "TDGraph-H", Faults: "no-such-class"}
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "no-such-class") {
		t.Fatalf("bad fault spec not rejected: %v", err)
	}
	s.Faults = ""
	s.FaultPolicy = "bogus"
	if _, err := Run(s); err == nil {
		t.Fatal("bad validation policy not rejected")
	}
	ClearCache()
}

// TestIngestRejectsUnwiredFaultClasses: a -faults spec over a batch
// stream arms only the classes MutateBatch acts on. Any other class
// would leave every cell unchanged without a word, so it is refused
// with an error that lists the accepted classes.
func TestIngestRejectsUnwiredFaultClasses(t *testing.T) {
	for _, c := range fault.Classes {
		var cfg stream.Config
		_, _, err := Ingest(&cfg, string(c), "", 64, stats.NewCollector())
		if slices.Contains(fault.BatchClasses, c) {
			if err != nil || cfg.Mutate == nil {
				t.Errorf("%s: batch class not armed: %v", c, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "accepted: corrupt dup reorder oob badweight selfloop") {
			t.Errorf("%s: not refused with the accepted classes listed: %v", c, err)
		}
	}
}
