package stats_test

import (
	"strings"
	"testing"

	"github.com/tdgraph/tdgraph/internal/stats"
)

func TestCollectorBasics(t *testing.T) {
	c := stats.NewCollector()
	c.Inc("a")
	c.Add("a", 2)
	c.Add("b", 5)
	if c.Get("a") != 3 || c.Get("b") != 5 || c.Get("missing") != 0 {
		t.Fatalf("values wrong: %v", c.Snapshot())
	}
	if got := c.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("names = %v", got)
	}
}

func TestCollectorMergeResetSet(t *testing.T) {
	a := stats.NewCollector()
	b := stats.NewCollector()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merge wrong: %v", a.Snapshot())
	}
	a.Set("x", 10)
	if a.Get("x") != 10 {
		t.Fatal("set failed")
	}
	a.Reset()
	if a.Get("x") != 0 || len(a.Names()) != 2 {
		t.Fatal("reset semantics wrong")
	}
}

func TestCollectorString(t *testing.T) {
	c := stats.NewCollector()
	c.Add("zz", 1)
	c.Add("aa", 2)
	s := c.String()
	if !strings.Contains(s, "aa") || strings.Index(s, "aa") > strings.Index(s, "zz") {
		t.Fatalf("String not sorted: %q", s)
	}
}
