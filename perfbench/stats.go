package main

import (
	"fmt"
	"math"
	"sort"
)

// minP90Samples is the smallest sample count for which a p90 is reported:
// a percentile needs at least ten samples beyond it to mean anything.
const minP90Samples = 100

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified). An empty
// sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 returns the 90th percentile and true when there are at least
// minP90Samples samples, and false otherwise: a p90 over fewer samples has
// fewer than ten observations beyond it and is not reported.
func p90(xs []float64) (float64, bool) {
	if len(xs) < minP90Samples {
		return 0, false
	}
	return quantile(xs, 0.9), true
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and has at most 64 letters, digits, '_',
// '.' and '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, r := range s {
		alnum := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !alnum && r != '_' && r != '/' && r != '%' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a named metric set under construction. set rejects invalid
// names and units and non-finite values, so a bad metric fails the run
// instead of producing output a reader would reject.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if !validName(name) || !validUnit(unit) {
		panic(fmt.Sprintf("perfbench: invalid metric %q (unit %q)", name, unit))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix64 is the SplitMix64 output function: a bijective mixer used to
// derive independent per-op seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed maps (run seed, stream, index) to a positive scenario seed
// below 2^31, so derived seeds stay readable on command lines.
func deriveSeed(seed int64, stream, i int) int64 {
	x := splitmix64(uint64(seed)*0x100000001b3 ^ splitmix64(uint64(stream)<<32|uint64(i)))
	return int64(x>>33) + 1
}
