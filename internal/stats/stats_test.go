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
	c.Set("a", 10)
	c.Set("fresh", 7)
	if c.Get("a") != 10 || c.Get("fresh") != 7 {
		t.Fatalf("set failed: %v", c.Snapshot())
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
