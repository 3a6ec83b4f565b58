package bench

import (
	"bytes"
	"strings"
	"testing"
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
	if len(p2.batch) == len(p1.batch) {
		// Injection duplicates some updates and validation drops others;
		// identical lengths would suggest the injector never ran. Guard
		// loosely — equality of content is what must differ.
		same := true
		for i := range p1.batch {
			if p1.batch[i] != p2.batch[i] {
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
