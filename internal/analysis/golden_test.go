package analysis

import (
	"strings"
	"testing"
)

// The project checks, each against its golden testdata package. The
// import path override places the testdata inside (or outside) the
// package sets the checks gate on.

func TestGoldenDeterminism(t *testing.T) {
	runGolden(t, DeterminismCheck(), "determinism", "github.com/tdgraph/tdgraph/internal/sim", nil)
}

func TestGoldenClockseam(t *testing.T) {
	runGolden(t, ClockseamCheck(), "clockseam", "github.com/tdgraph/tdgraph/internal/replica", nil)
}

func TestGoldenErrwrap(t *testing.T) {
	runGolden(t, ErrwrapCheck(), "errwrap", "github.com/tdgraph/tdgraph/internal/vettest", nil)
}

// TestErrwrapForeignTypedErrorOutsideInternal: the module path from
// go.mod, not a cut at /internal/, decides what is foreign, so the rule
// also reaches packages under cmd/ and examples/.
func TestErrwrapForeignTypedErrorOutsideInternal(t *testing.T) {
	const src = "package probe\n\nimport \"github.com/tdgraph/tdgraph/internal/serve\"\n\nfunc f() error { return &serve.DeadlineError{} }\n"
	for _, path := range []string{"github.com/tdgraph/tdgraph/cmd/probe", "github.com/tdgraph/tdgraph/examples/probe"} {
		pkg := loadTestPackage(t, path, testFile{"probe.go", src})
		diags := RunSuite([]*Check{ErrwrapCheck()}, []*Package{pkg}, SuiteOptions{}).Findings
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "constructing serve.DeadlineError outside its owning package") {
			t.Errorf("%s: got %v, want one foreign-construction finding", path, diags)
		}
	}
}

func TestGoldenLockorder(t *testing.T) {
	runGolden(t, LockorderCheck(), "lockorder", "github.com/tdgraph/tdgraph/internal/vettest", nil)
}

func TestGoldenSyncack(t *testing.T) {
	runGolden(t, SyncackCheck(), "syncack", "github.com/tdgraph/tdgraph/internal/replica", nil)
}

func TestGoldenCtrreg(t *testing.T) {
	runGolden(t, CtrregCheck(), "ctrreg", "github.com/tdgraph/tdgraph/internal/vettest",
		map[string]bool{"x.registered": true, "wal.appends": true})
}

// TestGoldenLockguard runs the distilled pre-2af44cb isolatedSince
// regression: the wrong-lock probe read must fire, and every deliberate
// exemption (constructor, inherited guard, dual-guard, immutable
// field) must stay silent — runGolden matches exactly, so any extra
// diagnostic fails the test.
func TestGoldenLockguard(t *testing.T) {
	runGolden(t, LockguardCheck(), "lockguard", "github.com/tdgraph/tdgraph/internal/vettest/lockguard", nil)
}

// TestGoldenLockhold runs the check repeatedly, and each run must match
// the golden diagnostics exactly, so every run prints the same bytes.
// The fixture's bothPolls reaches two blocking callees: the reason chain
// it hands its locked caller depends on the order the fixpoint visits
// functions, and a map-ordered walk names the other callee in about one
// run in five.
func TestGoldenLockhold(t *testing.T) {
	for run := 0; run < 16; run++ {
		runGolden(t, LockholdCheck(), "lockhold", "github.com/tdgraph/tdgraph/internal/vettest/lockhold", nil)
	}
}

// TestGoldenGoroleak loads the fixture under an internal/serve
// subpath, inside the goroutine-lifecycle gate.
func TestGoldenGoroleak(t *testing.T) {
	runGolden(t, GoroleakCheck(), "goroleak", "github.com/tdgraph/tdgraph/internal/serve/pool", nil)
}

// TestGoldenHotalloc: the //tdgraph:hot-marked Session ApplyBatch and
// propagate seed the hot set, reachability carries it into helpers.
func TestGoldenHotalloc(t *testing.T) {
	runGolden(t, HotallocCheck(), "hotalloc", "github.com/tdgraph/tdgraph/internal/native", nil)
}

// TestGoldenHotallocMarker proves the //tdgraph:hot doc marker seeds
// the hot set with no help from the package path.
func TestGoldenHotallocMarker(t *testing.T) {
	runGolden(t, HotallocCheck(), "hotallocmark", "github.com/tdgraph/tdgraph/internal/vettest", nil)
}

// TestGoldenDeterminismOutsideSet proves the package gate: the same
// violating file under a non-deterministic import path yields nothing.
func TestGoldenDeterminismOutsideSet(t *testing.T) {
	loader := sharedLoader(t)
	pkg := loadGoldenPackage(t, loader, "determinism", "github.com/tdgraph/tdgraph/internal/serve2")
	diags := RunSuite([]*Check{DeterminismCheck()}, []*Package{pkg}, SuiteOptions{}).Findings
	if len(diags) != 0 {
		t.Fatalf("determinism fired outside the deterministic package set: %v", diags)
	}
}

// TestGoldenClockseamOutsideSet proves the package gate: the serve
// layer (which owns the RealClock implementation) and everything else
// may call the time package freely.
func TestGoldenClockseamOutsideSet(t *testing.T) {
	loader := sharedLoader(t)
	pkg := loadGoldenPackage(t, loader, "clockseam", "github.com/tdgraph/tdgraph/internal/serve2")
	diags := RunSuite([]*Check{ClockseamCheck()}, []*Package{pkg}, SuiteOptions{}).Findings
	if len(diags) != 0 {
		t.Fatalf("clockseam fired outside internal/replica: %v", diags)
	}
}

// TestGoldenSyncackOutsideSet proves the wal/replica gate.
func TestGoldenSyncackOutsideSet(t *testing.T) {
	loader := sharedLoader(t)
	pkg := loadGoldenPackage(t, loader, "syncack", "github.com/tdgraph/tdgraph/internal/stream2")
	diags := RunSuite([]*Check{SyncackCheck()}, []*Package{pkg}, SuiteOptions{}).Findings
	if len(diags) != 0 {
		t.Fatalf("syncack fired outside wal/replica: %v", diags)
	}
}

// TestGoldenGoroleakOutsideSet proves the serve/replica/native gate:
// the same leaky launches under a stream path yield nothing.
func TestGoldenGoroleakOutsideSet(t *testing.T) {
	loader := sharedLoader(t)
	pkg := loadGoldenPackage(t, loader, "goroleak", "github.com/tdgraph/tdgraph/internal/stream2/pool")
	diags := RunSuite([]*Check{GoroleakCheck()}, []*Package{pkg}, SuiteOptions{}).Findings
	if len(diags) != 0 {
		t.Fatalf("goroleak fired outside serve/replica/native: %v", diags)
	}
}
