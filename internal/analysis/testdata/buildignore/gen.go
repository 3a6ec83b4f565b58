//go:build ignore

// gen is run by hand (go run gen.go), never built with the package.
package main

import "fmt"

func main() {
	fmt.Println("generated")
}
