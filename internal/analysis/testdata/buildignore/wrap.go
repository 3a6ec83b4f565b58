// Package buildignore sits beside a file that go build never compiles
// (gen.go, a `go run` generator in package main): the analyzer must
// check wrap.go alone and report its finding.
package buildignore

import "fmt"

func wrap(err error) error {
	return fmt.Errorf("wrap: %v", err)
}
