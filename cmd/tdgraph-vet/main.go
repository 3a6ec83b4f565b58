// Command tdgraph-vet runs the project-invariant analyzer suite
// (internal/analysis) over the packages `go list` matches for the given
// patterns (default ./..., which also takes in the nested benchmark
// module), and exits nonzero when any contract violation is found:
//
//	go run ./cmd/tdgraph-vet ./...
//
// Each package is checked over the files go build compiles, with full
// type information. `tdgraph-vet -list` names the checks; DESIGN.md's
// static-analysis ladder explains them. Suppress a finding with an
// inline directive carrying a reason (a directive that stops matching
// any finding is itself reported as stale):
//
//	//tdgraph:allow <check> <reason>
//
// -json emits one JSON object per diagnostic (suppressed rows
// included) for CI artifacts and annotations.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load failure (a package
// that does not list, parse or type-check; stderr names it).
package main

import (
	"os"

	"github.com/tdgraph/tdgraph/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:], os.Stdout, os.Stderr))
}
