package workload

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestZipfRanksInRange(t *testing.T) {
	f := func(seed uint64) bool {
		z := NewZipf(1000, 0.99)
		rng := rand.New(rand.NewPCG(seed, 3))
		for i := 0; i < 256; i++ {
			if r := z.Rank(rng); r >= 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	// With s=0.99 over 1M keys, the most popular key should receive far
	// more hits than a uniform draw would (1/1M); empirically rank 0 gets
	// on the order of 1/ln(N)*... — just assert strong skew: rank0 freq >
	// 1000x uniform and the top-100 ranks dominate low ranks.
	z := NewZipf(1_000_000, 0.99)
	rng := rand.New(rand.NewPCG(5, 8))
	const n = 200_000
	var rank0, top100 int
	for i := 0; i < n; i++ {
		r := z.Rank(rng)
		if r == 0 {
			rank0++
		}
		if r < 100 {
			top100++
		}
	}
	if rank0 < 1000 { // uniform would give ~0.2 hits
		t.Errorf("rank0 hits = %d, want heavy skew (>1000)", rank0)
	}
	if frac := float64(top100) / n; frac < 0.25 {
		t.Errorf("top-100 fraction = %v, want > 0.25 under Zipf-0.99", frac)
	}
}

func TestZipfRatioMatchesLaw(t *testing.T) {
	// P(rank0)/P(rank1) should be close to 2^s.
	z := NewZipf(1000, 0.99)
	rng := rand.New(rand.NewPCG(11, 4))
	var c0, c1 int
	const n = 2_000_000
	for i := 0; i < n; i++ {
		switch z.Rank(rng) {
		case 0:
			c0++
		case 1:
			c1++
		}
	}
	got := float64(c0) / float64(c1)
	want := math.Pow(2, 0.99)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("rank0/rank1 ratio = %v, want ~%v", got, want)
	}
}

func TestZipfSingleKey(t *testing.T) {
	z := NewZipf(1, 0.99)
	rng := rand.New(rand.NewPCG(0, 0))
	for i := 0; i < 100; i++ {
		if r := z.Rank(rng); r != 0 {
			t.Fatalf("single-key Zipf returned rank %d", r)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, c := range []struct {
		n uint64
		s float64
	}{{0, 0.99}, {10, 0}, {10, -1}, {10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d,%v) should panic", c.n, c.s)
				}
			}()
			NewZipf(c.n, c.s)
		}()
	}
}

func TestZipfDeterminism(t *testing.T) {
	z := NewZipf(10_000, 0.99)
	a := rand.New(rand.NewPCG(1, 2))
	b := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		if z.Rank(a) != z.Rank(b) {
			t.Fatal("Zipf not deterministic under equal seeds")
		}
	}
}

func TestKVMixRatios(t *testing.T) {
	m := NewKVMix(0.9, 0.1, 1000, 0.99)
	rng := rand.New(rand.NewPCG(3, 3))
	counts := map[OpKind]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		k, key := m.Next(rng)
		if key >= 1000 {
			t.Fatalf("key %d out of range", key)
		}
		counts[k]++
	}
	if frac := float64(counts[OpGet]) / n; math.Abs(frac-0.9) > 0.01 {
		t.Errorf("GET fraction = %v, want ~0.9", frac)
	}
	if frac := float64(counts[OpScan]) / n; math.Abs(frac-0.1) > 0.01 {
		t.Errorf("SCAN fraction = %v, want ~0.1", frac)
	}
	if counts[OpSet] != 0 {
		t.Errorf("SET count = %d, want 0 for 90/10 mix", counts[OpSet])
	}
}

func TestKVMixWithWrites(t *testing.T) {
	m := NewKVMix(0.5, 0.25, 100, 0.99)
	rng := rand.New(rand.NewPCG(4, 4))
	counts := map[OpKind]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		k, _ := m.Next(rng)
		counts[k]++
	}
	if frac := float64(counts[OpSet]) / n; math.Abs(frac-0.25) > 0.02 {
		t.Errorf("SET fraction = %v, want ~0.25", frac)
	}
}

func TestKVMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid mix should panic")
		}
	}()
	NewKVMix(0.9, 0.2, 100, 0.99)
}

// TestZipfAliasTableMatchesLaw validates the alias construction
// directly: the aggregate acceptance mass per rank must reproduce the
// normalized 1/(i+1)^s pmf to float accuracy, without sampling noise.
func TestZipfAliasTableMatchesLaw(t *testing.T) {
	const n = 1000
	const s = 0.99
	z := NewZipf(n, s)
	z.once.Do(z.build)

	// Reconstruct each rank's probability from the table: rank i gets
	// prob[i]/n from its own column plus (1-prob[j])/n from every column
	// aliased to it.
	got := make([]float64, n)
	for i := 0; i < n; i++ {
		got[i] += z.prob[i] / n
		if z.prob[i] < 1 {
			got[z.alias[i]] += (1 - z.prob[i]) / n
		}
	}
	var sum float64
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Pow(float64(i+1), -s)
		sum += want[i]
	}
	for i := range want {
		want[i] /= sum
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("rank %d: alias table mass %v, want pmf %v", i, got[i], want[i])
		}
	}
}

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{OpGet: "GET", OpScan: "SCAN", OpSet: "SET", OpKind(9): "UNKNOWN"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// --- Sampler micro-benchmarks (README § Benchmarking) ---

// BenchmarkZipfRank measures the O(1) alias-method draw over the
// paper's 1M-key space. Steady state allocates nothing; the table build
// is amortized before the timer starts.
func BenchmarkZipfRank(b *testing.B) {
	z := NewZipf(1_000_000, 0.99)
	rng := rand.New(rand.NewPCG(1, 2))
	z.Rank(rng) // force the lazy table build out of the timed region
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += z.Rank(rng)
	}
	_ = sink
}

// BenchmarkKVMixNext measures a full operation draw: op-kind coin plus
// alias-method key rank.
func BenchmarkKVMixNext(b *testing.B) {
	m := NewKVMix(0.9, 0.05, 1_000_000, 0.99)
	rng := rand.New(rand.NewPCG(3, 4))
	m.Next(rng)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		_, k := m.Next(rng)
		sink += k
	}
	_ = sink
}

// BenchmarkPoissonGap measures the open-loop inter-arrival draw.
func BenchmarkPoissonGap(b *testing.B) {
	p := Poisson{RatePerSec: 1e6}
	rng := rand.New(rand.NewPCG(5, 6))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += p.NextGap(rng)
	}
	_ = sink
}
