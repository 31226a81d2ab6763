package trace

import (
	"math"
	"math/big"
	"strconv"
	"testing"
)

// oracleRank is the reference nearest-rank computation: parse q's
// shortest decimal representation into an exact rational, take
// ceil(q*n) in big-integer arithmetic, clamp to [1, n]. An independent
// implementation path from NearestRank's 128-bit limb arithmetic.
func oracleRank(n int64, q float64) int64 {
	if n <= 0 {
		return 0
	}
	if q <= 0 || math.IsNaN(q) {
		return 1
	}
	if q >= 1 {
		return n
	}
	r, ok := new(big.Rat).SetString(strconv.FormatFloat(q, 'g', -1, 64))
	if !ok {
		panic("oracleRank: unparseable float")
	}
	prod := r.Mul(r, new(big.Rat).SetInt64(n))
	num, den := prod.Num(), prod.Denom()
	ceil := new(big.Int).Div(num, den)
	if new(big.Int).Mul(ceil, den).Cmp(num) != 0 {
		ceil.Add(ceil, big.NewInt(1))
	}
	v := ceil.Int64()
	if v < 1 {
		v = 1
	}
	if v > n {
		v = n
	}
	return v
}

// TestNearestRankDifferential checks NearestRank against the big.Rat
// oracle across a dense (q, n) grid — every 3-digit decimal quantile
// crossed with small and SLO-typical sample counts — plus the sparse
// large-n corners.
func TestNearestRankDifferential(t *testing.T) {
	var qs []float64
	for i := 1; i < 1000; i++ {
		qs = append(qs, float64(i)/1000)
	}
	qs = append(qs, 0.0001, 0.9999, 0.99999, 1.0/3.0, 2.0/3.0)
	var ns []int64
	for n := int64(1); n <= 256; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 1000, 10000, 100000, 1_000_000,
		729402179500, // drifted under the old float path
		math.MaxInt64/3, math.MaxInt64)
	for _, q := range qs {
		for _, n := range ns {
			if got, want := NearestRank(n, q), oracleRank(n, q); got != want {
				t.Fatalf("NearestRank(%d, %v) = %d, want %d", n, q, got, want)
			}
		}
	}
}

// floatRank reproduces the buggy pre-fix computation so the regression
// test below can document exactly which pairs drifted.
func floatRank(n int64, q float64) int64 {
	rank := int64(q * float64(n))
	if float64(rank) < q*float64(n) || rank == 0 {
		rank++
	}
	if rank > n {
		rank = n
	}
	return rank
}

// TestNearestRankDriftPairs pins (q, n) pairs where the old float
// ceiling verifiably reported a rank one too high — the decimal product
// q*n is an integer k, but the rounded double product lands fractionally
// above k and the ceiling bumps to k+1, inflating the reported quantile
// toward the tail.
func TestNearestRankDriftPairs(t *testing.T) {
	cases := []struct {
		n    int64
		q    float64
		want int64
	}{
		{100, 0.07, 7},
		{200, 0.035, 7},
		{10000, 0.069, 690},
		{10000, 0.101, 1010},
		{100000, 0.017, 1700},
		{100000, 0.07, 7000},
		{729402179500, 0.548, 399712394366},
	}
	drifted := 0
	for _, c := range cases {
		if got := NearestRank(c.n, c.q); got != c.want {
			t.Errorf("NearestRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if floatRank(c.n, c.q) == c.want+1 {
			drifted++
		}
	}
	if drifted != len(cases) {
		t.Errorf("%d/%d cases drift under the old float ceiling; every pinned case should",
			drifted, len(cases))
	}
}

// TestNearestRankSLOPins pins the ranks behind the SLO table quantiles
// at the sample counts serve-mode reports use.
func TestNearestRankSLOPins(t *testing.T) {
	cases := []struct {
		n    int64
		q    float64
		want int64
	}{
		{100, 0.50, 50},
		{100, 0.95, 95},
		{100, 0.99, 99}, // p99 of 100 samples is rank 99, not the max
		{20, 0.95, 19},
		{1000, 0.99, 990},
		{100000, 0.999, 99900},
	}
	for _, c := range cases {
		if got := NearestRank(c.n, c.q); got != c.want {
			t.Errorf("NearestRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// TestNearestRankEdges covers degenerate inputs.
func TestNearestRankEdges(t *testing.T) {
	cases := []struct {
		n    int64
		q    float64
		want int64
	}{
		{0, 0.5, 0},
		{-3, 0.5, 0},
		{1, 0.0, 1},
		{1, 1.0, 1},
		{5, -0.5, 1},
		{5, 2.0, 5},
		{5, math.NaN(), 1},
		{5, 1e-300, 1}, // far below any resolvable rank: ceil of a positive sliver is 1
		{5, math.SmallestNonzeroFloat64, 1},
		{4, 0.5, 2},
		{4, 0.25, 1},
		{10, 0.9, 9},      // double(0.9) > 0.9; a double-exact ceiling would say 10
		{100, 0.01, 1},    // double(0.01) > 0.01; a double-exact ceiling would say 2
		{3, 1.0 / 3.0, 1}, // shortest decimal 0.3333333333333333 < 1/3
		{3, 2.0 / 3.0, 2}, // shortest decimal 0.6666666666666666 < 2/3
	}
	for _, c := range cases {
		if got := NearestRank(c.n, c.q); got != c.want {
			t.Errorf("NearestRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// TestHistogramQuantileRank checks that Histogram.Quantile picks the
// bucket of the exact nearest rank: 100 observations, one per bucket,
// p99 must resolve to the 99th observation's bucket, not the 100th's,
// and a p7 lookup must not inflate to rank 8.
func TestHistogramQuantileRank(t *testing.T) {
	bounds := make([]int64, 100)
	for i := range bounds {
		bounds[i] = int64(i + 1)
	}
	h := newHistogram(bounds)
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{
		{0.07, 7}, {0.50, 50}, {0.95, 95}, {0.99, 99}, {1.0, 100},
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) over 1..100 = %d, want %d", c.q, got, c.want)
		}
	}
}
