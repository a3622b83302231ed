package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples
// and whether at least minBeyond samples lie beyond it. Undelivered work
// enters samples as +Inf, so it sorts beyond every finite limit. samples
// is sorted in place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return samples[rank-1], true
}

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two nearest ranks, without reordering xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(h)
	f := h - float64(i)
	if f == 0 || s[i] == s[i+1] { // also keeps +Inf samples from turning into NaN
		return s[i]
	}
	return s[i] + f*(s[i+1]-s[i])
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// slowRate and slowCost summarize a figure over a run's repetitions by its
// slow quartile: the lower quartile of a rate, the upper quartile of a cost
// or a latency. On a shared host a run's repetitions fall into a slow
// state and a faster one, and the share of fast repetitions differs from
// run to run, so a median flips between the two states. Over six seeds on
// a 2-vCPU shared host, field_1e6 drain rates spread 0.15 and 0.08
// (quartile distance over median) as medians, 0.05 and 0.07 as lower
// quartiles.
func slowRate(xs []float64) float64 { return quantile(xs, 0.25) }
func slowCost(xs []float64) float64 { return quantile(xs, 0.75) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies collects latency percentiles per repetition (a transfer or a
// drain) and reports their slow quartiles, so one disturbed repetition
// moves the result by one rank at most. Each percentile obeys the
// minBeyond rule within its repetition.
type latencies struct {
	p50, p99 []float64
	n        int
}

func (l *latencies) add(samples []float64) {
	l.n += len(samples)
	if v, ok := percentile(samples, 0.50); ok {
		l.p50 = append(l.p50, v)
	}
	if v, ok := percentile(samples, 0.99); ok {
		l.p99 = append(l.p99, v)
	}
}

// slow returns the slow quartiles of p50 and p99 over the repetitions that
// supported them, and false when none did.
func (l *latencies) slow() (p50, p99 float64, ok bool) {
	if len(l.p50) == 0 || len(l.p99) == 0 {
		return 0, 0, false
	}
	return slowCost(l.p50), slowCost(l.p99), true
}

// spreadNote renders min, quartiles and max of xs for the run's notes.
func spreadNote(name string, xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return name + ": no samples"
	}
	return fmt.Sprintf("%s over %d repetitions: min %.4g q1 %.4g median %.4g q3 %.4g max %.4g",
		name, len(s), s[0], quantile(s, 0.25), median(s), quantile(s, 0.75), s[len(s)-1])
}
