package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.5, 1}, {1, 0.99, 1},
		{10, 0.5, 5}, {10, 0.9, 9}, {10, 0.95, 10},
		{100, 0.5, 50}, {100, 0.9, 90}, {100, 0.99, 99},
		{1000, 0.99, 990}, {1000, 0.95, 950},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// minSamples is the smallest sample count that leaves ten samples
// above the p-quantile, the run-length rule the record's beyond counts
// are read against.
func minSamples(p float64) int {
	n := 10
	for beyond(n, p) < 10 {
		n++
	}
	return n
}

func TestTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.95, 200}, {0.99, 1000}}
	for _, c := range cases {
		n := minSamples(c.p)
		if n != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, n, c.want)
		}
		if beyond(n, c.p) < 10 || beyond(n-1, c.p) >= 10 {
			t.Errorf("p%v: %d samples leave %d beyond, %d leave %d", 100*c.p, n, beyond(n, c.p), n-1, beyond(n-1, c.p))
		}
	}
	if beyond(0, 0.99) != 0 {
		t.Error("no samples leave none beyond")
	}
}

func TestSeriesCounts(t *testing.T) {
	var s series
	for i := 0; i < 5; i++ {
		s.add(time.Duration(5-i) * time.Millisecond)
	}
	s.addMs(math.Inf(1))
	if s.count() != 6 {
		t.Fatalf("count = %d, want 6", s.count())
	}
	got := s.sorted()
	if got[0] != 1 || got[4] != 5 || !math.IsInf(got[5], 1) {
		t.Fatalf("sorted = %v", got)
	}
	if finite(got) != 5 {
		t.Fatalf("finite = %d, want 5", finite(got))
	}
	// A failure counts as missing every latency limit: it is the tail.
	if !math.IsInf(percentile(got, 0.99), 1) {
		t.Fatalf("p99 with a failure = %v, want +Inf", percentile(got, 0.99))
	}
}

func TestTallyFailRatio(t *testing.T) {
	tl := newTally()
	if tl.ratio() != 0 {
		t.Fatal("empty tally ratio should be 0")
	}
	for i := 0; i < 8; i++ {
		tl.record("read", nil)
	}
	tl.record("read", errors.New("wrong rent"))
	tl.record("check.supply", errors.New("supply changed"))
	a, f := tl.counts()
	if a != 10 || f != 2 {
		t.Fatalf("counts = %d/%d, want 10/2", a, f)
	}
	if tl.ratio() != 0.2 {
		t.Fatalf("ratio = %v, want 0.2", tl.ratio())
	}
	fs := tl.failures()
	if len(fs) != 2 || fs["read"].(map[string]interface{})["first"] != "wrong rent" {
		t.Fatalf("failures = %v", fs)
	}
}

func TestFailedOpCountsInSink(t *testing.T) {
	s := newSink(newTally())
	s.timed("write", &s.writes, func() error { return nil })
	s.timed("write", &s.writes, func() error { return errors.New("HTTP 500") })
	if s.tally.ratio() != 0.5 || s.writes.count() != 2 || finite(s.writes.sorted()) != 1 {
		t.Fatalf("ratio %v, samples %d, finite %d", s.tally.ratio(), s.writes.count(), finite(s.writes.sorted()))
	}
}

func TestPromDiffAndHistogramMean(t *testing.T) {
	before := parseProm([]byte("# HELP x\nlegalchain_chain_seal_seconds_sum 1.5\nlegalchain_chain_seal_seconds_count 10\nlegalchain_blocks_total 10\n"))
	after := parseProm([]byte("legalchain_chain_seal_seconds_sum 2.5\nlegalchain_chain_seal_seconds_count 30\nlegalchain_blocks_total 30\nlegalchain_new{a=\"b c\"} 4\n"))
	d := diff(before, after)
	d.add(promSample{"legalchain_blocks_total": 5})
	if d["legalchain_blocks_total"] != 25 || d[`legalchain_new{a="b c"}`] != 4 {
		t.Fatalf("diff = %v", d)
	}
	if got := histMeanMs(d, "legalchain_chain_seal_seconds"); got != 50 {
		t.Fatalf("mean seal = %vms, want 50", got)
	}
	if histMean(d, "legalchain_missing") != 0 {
		t.Fatal("a histogram with no observations has mean 0")
	}
}
