module github.com/tdgraph/tdgraph/benchmark

go 1.22

require github.com/tdgraph/tdgraph v0.0.0

replace github.com/tdgraph/tdgraph => ../
