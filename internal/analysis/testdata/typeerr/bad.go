// Package typeerr does not compile: the analyzer must refuse to run
// over it rather than check partial type information.
package typeerr

import "fmt"

func wrap(err error) error {
	return fmt.Errorf("wrap: %v", undefinedErr)
}
