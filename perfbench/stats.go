package main

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// samples is a concurrency-safe latency sample set in one unit.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// pct is one reported percentile: the value, the quantile it really is,
// and the sample count behind it.
type pct struct {
	Value float64 `json:"value"`
	Q     float64 `json:"q"`
	N     int     `json:"n"`
}

// quantile returns the q-quantile (q ≥ 0.5), lowered when needed to the
// highest quantile that still has at least ten samples beyond it, so a
// tail figure always rests on ten or more observations; it never drops
// below the median.
func (s *samples) quantile(q float64) pct {
	s.mu.Lock()
	v := slices.Clone(s.v)
	s.mu.Unlock()
	if len(v) == 0 {
		return pct{}
	}
	sort.Float64s(v)
	n := len(v)
	i := min(int(math.Ceil(q*float64(n)))-1, n-11)
	i = max(i, (n-1)/2)
	return pct{Value: v[i], Q: float64(i+1) / float64(n), N: n}
}

func (s *samples) median() float64 { return s.quantile(0.5).Value }

// medianOf is the median of a small set of repeated measurements.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
