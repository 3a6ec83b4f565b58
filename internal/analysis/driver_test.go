package analysis

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The driver contract: 0 clean, 1 findings (one file:line:col line
// per finding on stdout), 2 usage/load errors. These tests run Main
// exactly as cmd/tdgraph-vet does, against small explicit package
// dirs so they stay fast. Patterns are the go command's, relative to
// this package's directory; output paths are module-relative.

func TestDriverFindingsExitOne(t *testing.T) {
	var out, errb strings.Builder
	code := Main([]string{"./testdata/driver"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	line := strings.TrimSpace(out.String())
	re := regexp.MustCompile(`^internal/analysis/testdata/driver/bad\.go:\d+:\d+: errwrap: .+%v.+%w`)
	if !re.MatchString(line) {
		t.Fatalf("output %q does not match %v", line, re)
	}
	if !strings.Contains(errb.String(), "1 finding(s)") {
		t.Fatalf("stderr %q missing findings summary", errb.String())
	}
}

func TestDriverCleanExitZero(t *testing.T) {
	var out, errb strings.Builder
	// The analysis package itself must stay clean under its own suite.
	code := Main([]string{"."}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.String() != "" {
		t.Fatalf("clean run printed diagnostics:\n%s", out.String())
	}
}

// TestDriverSkipsBuildIgnoredFiles: the analyzer sees the files go
// build compiles. gen.go (//go:build ignore, package main) is not one
// of them; read into the package it would fail the type check and hide
// wrap.go's finding.
func TestDriverSkipsBuildIgnoredFiles(t *testing.T) {
	var out, errb strings.Builder
	code := Main([]string{"./testdata/buildignore"}, &out, &errb)
	if code != 1 || errb.String() != "tdgraph-vet: 1 finding(s)\n" {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	re := regexp.MustCompile(`^internal/analysis/testdata/buildignore/wrap\.go:9:\d+: errwrap: `)
	if line := strings.TrimSpace(out.String()); !re.MatchString(line) {
		t.Fatalf("output %q does not match %v", line, re)
	}
}

// TestDriverTypeErrorExitTwo: a package that does not type-check is a
// load failure naming the package, not a run over partial type facts.
func TestDriverTypeErrorExitTwo(t *testing.T) {
	var out, errb strings.Builder
	code := Main([]string{"./testdata/typeerr"}, &out, &errb)
	if code != 2 || out.String() != "" {
		t.Fatalf("exit code = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "github.com/tdgraph/tdgraph/internal/analysis/testdata/typeerr: ") {
		t.Fatalf("stderr %q does not name the package", errb.String())
	}
}

func TestDriverBadPatternExitTwo(t *testing.T) {
	var out, errb strings.Builder
	if code := Main([]string{"no/such/dir"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestDriverJSONOutput(t *testing.T) {
	var out, errb strings.Builder
	code := Main([]string{"-json", "./testdata/driver"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sawErrwrap bool
	for _, line := range lines {
		var d JSONDiagnostic
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("line %q is not one JSON object: %v", line, err)
		}
		if d.Check == "" || d.File == "" || d.Line == 0 || d.Msg == "" {
			t.Fatalf("incomplete diagnostic %+v from line %q", d, line)
		}
		if strings.HasPrefix(d.File, "/") {
			t.Fatalf("file %q is absolute; -json promises module-relative paths", d.File)
		}
		if d.Check == "errwrap" && !d.Suppressed && d.File == "internal/analysis/testdata/driver/bad.go" {
			sawErrwrap = true
		}
	}
	if !sawErrwrap {
		t.Fatalf("no unsuppressed errwrap diagnostic in -json output:\n%s", out.String())
	}
}

func TestDriverList(t *testing.T) {
	var out, errb strings.Builder
	if code := Main([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "clockseam", "errwrap", "lockorder", "ctrreg", "lockguard", "lockhold", "goroleak"} {
		if !strings.Contains(out.String(), name+" ") {
			t.Fatalf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestDriverStaleOnlyOverWholeModule: a stale-waiver audit needs the
// whole module's call graph. Run over package a alone, the waiver on
// a's call into b looks stale (b is not loaded, so the call looks
// harmless); the driver must not say so. Run over ./... at the module
// root, it flags the waiver that covers nothing, and only that one.
func TestDriverStaleOnlyOverWholeModule(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("testdata/stalemod"); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, c := range []struct {
		pattern string
		code    int
		out     string
	}{
		{"./a", 0, ""},
		{"./...", 1, "a/a.go:29:2: directive: stale //tdgraph:allow lockhold: no lockhold diagnostic on the covered lines; remove the waiver\n"},
	} {
		var out, errb strings.Builder
		if code := Main([]string{c.pattern}, &out, &errb); code != c.code || out.String() != c.out {
			t.Errorf("%s: exit code %d, want %d\nstdout:\n%s\nwant:\n%s\nstderr:\n%s", c.pattern, code, c.code, out.String(), c.out, errb.String())
		}
	}
}
