package main

import (
	"fmt"
	"slices"
	"time"
)

// sample is a list of repeated measurements of one quantity.
type sample []float64

func (s *sample) add(v float64) { *s = append(*s, v) }

func (s *sample) addDur(d time.Duration) { s.add(d.Seconds()) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (0 for an empty sample).
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := slices.Clone(s)
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i >= len(v)-1 {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// summary renders the median with the minimum, the 10th percentile, the
// quartiles, the maximum and the sample count — the form every timing is
// printed in.
func (s sample) summary(scale float64, unit string) string {
	return fmt.Sprintf("median %.4g %s (min %.4g, p10 %.4g, q1 %.4g, q3 %.4g, max %.4g, n=%d)",
		s.median()*scale, unit, s.quantile(0)*scale, s.quantile(0.1)*scale, s.quantile(0.25)*scale,
		s.quantile(0.75)*scale, s.quantile(1)*scale, len(s))
}
