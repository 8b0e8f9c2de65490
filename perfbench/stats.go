package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// series is one operation class's latencies in milliseconds.
type series struct {
	mu sync.Mutex
	ms []float64
}

func (s *series) add(d time.Duration) {
	s.addMs(float64(d) / float64(time.Millisecond))
}

func (s *series) addMs(v float64) {
	s.mu.Lock()
	s.ms = append(s.ms, v)
	s.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (s *series) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.ms...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func (s *series) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// rank is the 1-based nearest-rank position of quantile p in n samples.
// The epsilon keeps products such as 0.9*100 from rounding up a rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-quantile of sorted samples, or
// NaN when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond is how many of n samples lie above the p-quantile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tally counts attempted and failed operations. Every timed operation
// and every output check goes through it, so fail_ratio covers both.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      map[string]int64 // first message per failing class
	first     map[string]string
}

func newTally() *tally {
	return &tally{errs: map[string]int64{}, first: map[string]string{}}
}

// record counts one operation of class; a non-nil err marks it failed.
func (t *tally) record(class string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		t.errs[class]++
		if _, ok := t.first[class]; !ok {
			t.first[class] = err.Error()
		}
	}
}

func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// ratio is failed / attempted (0 when nothing was attempted).
func (t *tally) ratio() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// failures lists each failing class with its count and first error.
func (t *tally) failures() map[string]interface{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]interface{}{}
	for class, n := range t.errs {
		out[class] = map[string]interface{}{"count": n, "first": t.first[class]}
	}
	return out
}
