package sim

import (
	"math"
	"math/rand"
	"testing"
)

// countingSource counts the draws taken from a math/rand source.
type countingSource struct {
	src   rand.Source64
	draws int
}

func (c *countingSource) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.draws++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

func newCountingRand(seed int64) (*rand.Rand, *countingSource) {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// TestSkipRateEdgeCases pins the one rate rule every Bernoulli generator
// shares through Skip: rates <= 0 and NaN inject nothing and draw nothing,
// rates >= 1 inject at every node and draw only the destinations.
func TestSkipRateEdgeCases(t *testing.T) {
	const slots = 50
	cases := []struct {
		name    string
		n       int
		rate    float64
		perSlot int // injections in every slot
	}{
		{"zero", 8, 0, 0},
		{"negative", 8, -0.5, 0},
		{"NaN", 8, math.NaN(), 0},
		{"-Inf", 8, math.Inf(-1), 0},
		{"one", 8, 1, 8},
		{"above one", 8, 1.5, 8},
		{"+Inf", 8, math.Inf(1), 8},
		{"n=2 zero", 2, 0, 0},
		{"n=2 one", 2, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng, src := newCountingRand(1)
			var buf []Injection
			for s := 0; s < slots; s++ {
				buf = UniformTraffic{Rate: tc.rate}.Generate(buf[:0], s, tc.n, rng)
				if len(buf) != tc.perSlot {
					t.Fatalf("slot %d: %d injections, want %d", s, len(buf), tc.perSlot)
				}
				for i, inj := range buf {
					if inj.Src != i || inj.Dst == inj.Src || inj.Dst < 0 || inj.Dst >= tc.n {
						t.Fatalf("slot %d: bad injection %v", s, inj)
					}
				}
			}
			// Only destination draws remain: Intn(n-1) takes one draw.
			if want := slots * tc.perSlot; src.draws != want {
				t.Errorf("%d draws, want %d (one per destination)", src.draws, want)
			}
		})
	}
}

// TestSkipDrawCount pins the cost the skip buys: per slot, one gap draw
// per injection, one destination draw per injection, and one more gap
// draw that runs past the last node unless the last node injected.
func TestSkipDrawCount(t *testing.T) {
	for _, rate := range []float64{0.02, 0.3, 0.9} {
		const n, slots = 64, 2000
		rng, src := newCountingRand(5)
		var buf []Injection
		want := 0
		for s := 0; s < slots; s++ {
			buf = UniformTraffic{Rate: rate}.Generate(buf[:0], s, n, rng)
			want += 2 * len(buf)
			if len(buf) == 0 || buf[len(buf)-1].Src != n-1 {
				want++
			}
		}
		if src.draws != want {
			t.Errorf("rate %g: %d draws, want %d", rate, src.draws, want)
		}
	}
}

// oracleCase is one fixed-seed distributional check of the uniform
// Bernoulli stream. The degrees of freedom and chi-square critical values
// (upper 0.1% point) are checked-in constants, so a change that moves the
// binning fails loudly instead of re-deriving its own threshold.
type oracleCase struct {
	rate     float64
	n, slots int
	gapK     int // gap bins 0..gapK-1 plus ">= gapK"

	nodeDF, slotDF, gapDF       int
	nodeCrit, slotCrit, gapCrit float64
}

var oracleCases = []oracleCase{
	{rate: 0.02, n: 256, slots: 5000, gapK: 100,
		nodeDF: 256, nodeCrit: 331.66, slotDF: 13, slotCrit: 34.53, gapDF: 100, gapCrit: 149.45},
	{rate: 0.3, n: 256, slots: 2000, gapK: 20,
		nodeDF: 256, nodeCrit: 331.66, slotDF: 39, slotCrit: 72.05, gapDF: 20, gapCrit: 45.31},
	{rate: 0.9, n: 256, slots: 2000, gapK: 4,
		nodeDF: 256, nodeCrit: 331.66, slotDF: 26, slotCrit: 54.05, gapDF: 4, gapCrit: 18.47},
	{rate: 0.3, n: 2, slots: 20000, gapK: 2,
		nodeDF: 2, nodeCrit: 13.82, slotDF: 2, slotCrit: 13.82, gapDF: 2, gapCrit: 13.82},
}

// TestUniformInjectionDistribution is the distributional oracle of the
// geometric skip: per-node injection counts against Binomial(slots, p),
// per-slot counts against Binomial(n, p) and within-slot gaps against
// Geometric(p), each by a chi-square statistic at a fixed seed.
func TestUniformInjectionDistribution(t *testing.T) {
	for _, tc := range oracleCases {
		rng := rand.New(rand.NewSource(11))
		p, n := tc.rate, tc.n
		perNode := make([]float64, n)
		perSlot := make([]float64, n+1)
		gapObs := make([]float64, tc.gapK+1)
		var buf []Injection
		for s := 0; s < tc.slots; s++ {
			buf = UniformTraffic{Rate: p}.Generate(buf[:0], s, n, rng)
			perSlot[len(buf)]++
			// A gap starting at node from is classified only when at least
			// gapK nodes remain, so the ">= gapK" bin absorbs censoring at
			// the slot's end without biasing the shorter bins.
			from := 0
			for _, inj := range buf {
				perNode[inj.Src]++
				if n-from >= tc.gapK {
					gapObs[min(inj.Src-from, tc.gapK)]++
				}
				from = inj.Src + 1
			}
			if n-from >= tc.gapK {
				gapObs[tc.gapK]++
			}
		}

		mean, variance := float64(tc.slots)*p, float64(tc.slots)*p*(1-p)
		nodeStat := 0.0
		for _, c := range perNode {
			nodeStat += (c - mean) * (c - mean) / variance
		}
		checkChi2(t, p, n, "per-node counts", nodeStat, n, tc.nodeDF, tc.nodeCrit)

		slotExp := make([]float64, n+1)
		for k := range slotExp {
			slotExp[k] = float64(tc.slots) * binomialPMF(n, k, p)
		}
		stat, df := pearson(perSlot, slotExp)
		checkChi2(t, p, n, "per-slot counts", stat, df, tc.slotDF, tc.slotCrit)

		total := 0.0
		for _, c := range gapObs {
			total += c
		}
		gapExp := make([]float64, tc.gapK+1)
		for k := 0; k < tc.gapK; k++ {
			gapExp[k] = total * p * math.Pow(1-p, float64(k))
		}
		gapExp[tc.gapK] = total * math.Pow(1-p, float64(tc.gapK))
		stat, df = pearson(gapObs, gapExp)
		checkChi2(t, p, n, "gap lengths", stat, df, tc.gapDF, tc.gapCrit)
	}
}

func checkChi2(t *testing.T, p float64, n int, what string, stat float64, df, wantDF int, crit float64) {
	t.Helper()
	if df != wantDF {
		t.Errorf("p=%g n=%d %s: %d degrees of freedom, want %d (binning changed; re-derive the critical value)", p, n, what, df, wantDF)
	}
	if stat > crit {
		t.Errorf("p=%g n=%d %s: chi-square %.2f exceeds %.2f (df %d)", p, n, what, stat, crit, df)
	}
	t.Logf("p=%g n=%d %s: chi-square %.2f, df %d, critical %.2f", p, n, what, stat, df, crit)
}

// pearson returns Pearson's chi-square statistic and its degrees of
// freedom (bins - 1) after merging adjacent bins left to right until each
// expects at least 5; a short leftover tail joins the last bin.
func pearson(obs, exp []float64) (float64, int) {
	var o, e []float64
	var ao, ae float64
	for i := range obs {
		ao += obs[i]
		ae += exp[i]
		if ae >= 5 {
			o, e = append(o, ao), append(e, ae)
			ao, ae = 0, 0
		}
	}
	if len(o) > 0 {
		o[len(o)-1] += ao
		e[len(e)-1] += ae
	}
	stat := 0.0
	for i := range o {
		stat += (o[i] - e[i]) * (o[i] - e[i]) / e[i]
	}
	return stat, len(o) - 1
}

func binomialPMF(n, k int, p float64) float64 {
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	return math.Exp(lg(n) - lg(k) - lg(n-k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}
