// Package b blocks.
package b

import "time"

// Slow sleeps.
func Slow() { time.Sleep(time.Millisecond) }
