package value

import (
	"math"
	"math/rand"
	"testing"
)

// refHash64 is Hash64 written the long way, one FNV-1a step per byte of
// the canonical encoding: the definition every bucket assignment and
// hash-join table depends on.
func refHash64(v Value) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	k, num := v.kind, v.num
	if k == KindFloat {
		f := math.Float64frombits(num)
		if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
			k, num = KindInt, uint64(int64(f))
		}
	}
	mix(byte(k))
	switch k {
	case KindBool, KindInt, KindFloat:
		for i := 0; i < 8; i++ {
			mix(byte(num >> (8 * i)))
		}
	case KindString:
		for i := 0; i < len(v.str); i++ {
			mix(v.str[i])
		}
	}
	return h
}

// hashEdgeFloats are the float payloads whose canonicalization is easy
// to get wrong.
var hashEdgeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.5, 1e300, -1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 62)}

// randomKeyValue draws a value of kind k, NULL one time in six.
func randomKeyValue(r *rand.Rand, k Kind) Value {
	if r.Intn(6) == 0 {
		return Null
	}
	switch k {
	case KindBool:
		return NewBool(r.Intn(2) == 0)
	case KindInt:
		switch r.Intn(4) {
		case 0:
			return NewInt(r.Int63() - r.Int63())
		case 1:
			return NewInt([]int64{math.MinInt64, math.MaxInt64, 0, -1}[r.Intn(4)])
		}
		return NewInt(int64(r.Intn(20) - 10))
	case KindFloat:
		if r.Intn(3) == 0 {
			return NewFloat(hashEdgeFloats[r.Intn(len(hashEdgeFloats))])
		}
		return NewFloat(float64(r.Intn(40)-20) / 4)
	default:
		return NewString([]string{"", "a", "ab", "eu", "latam", "ü→", "a longer string key"}[r.Intn(7)])
	}
}

// TestHash64MatchesByteWiseFNV pins Hash64 to the byte-wise FNV-1a of
// the canonical encoding, so the unrolled kernels never move a row to a
// different bucket.
func TestHash64MatchesByteWiseFNV(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vals := []Value{Null, NewBool(true), NewBool(false)}
	for _, f := range hashEdgeFloats {
		vals = append(vals, NewFloat(f))
	}
	for i := 0; i < 2000; i++ {
		vals = append(vals, randomKeyValue(r, Kind(1+r.Intn(4))))
	}
	for _, v := range vals {
		if got, want := Hash64(v), refHash64(v); got != want {
			t.Fatalf("Hash64(%v) = %x, want %x", v, got, want)
		}
	}
}

// TestHashColumnMatchesHashRow: folding key columns one at a time gives
// every row the hash HashRow and HashTuple give it, for every kind,
// NULLs and integral floats included, over dense and selected batches.
func TestHashColumnMatchesHashRow(t *testing.T) {
	kinds := []Kind{KindBool, KindInt, KindFloat, KindString}
	schema := MustSchema("b", "BOOL", "i", "INT", "f", "FLOAT", "s", "VARCHAR", "none", "INT")
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		tuples := make([]Tuple, n)
		for i := range tuples {
			tup := make(Tuple, 0, 5)
			for _, k := range kinds {
				tup = append(tup, randomKeyValue(r, k))
			}
			tuples[i] = append(tup, Null, Null) // "none" and column 5 are all NULL
		}
		b := NewBatchFrom(schema, tuples)
		if b == nil {
			t.Fatal("NewBatchFrom declined")
		}
		// Column 5 has no kind at all, so every row reads as NULL.
		b.Cols = append(b.Cols, &Vec{Kind: KindNull, I: make([]int64, n)})
		var sel []int32
		if seed%2 == 0 {
			for i := 0; i < n; i++ {
				if r.Intn(3) != 0 {
					sel = append(sel, int32(i))
				}
			}
			b.Sel = sel
		}
		for _, idxs := range [][]int{{0}, {1}, {2}, {3}, {4}, {1, 3}, {3, 2, 0}, {0, 1, 2, 3, 4}, {5, 1}} {
			h := make([]uint64, b.Len())
			b.HashRows(idxs, b.Sel, h)
			for i, got := range h {
				row := b.Row(i)
				if want := b.HashRow(row, idxs); got != want {
					t.Fatalf("seed %d cols %v row %d: HashColumn %x != HashRow %x", seed, idxs, row, got, want)
				}
				if want := HashTuple(tuples[row], idxs); got != want {
					t.Fatalf("seed %d cols %v row %d: HashColumn %x != HashTuple %x", seed, idxs, row, got, want)
				}
			}
		}
	}
	// A boolean payload other than 0/1 still hashes as TRUE.
	vec := &Vec{Kind: KindBool, I: []int64{2}}
	h := []uint64{fnvOffset64}
	HashColumn(vec, nil, h)
	if want := HashTuple(Tuple{NewBool(true)}, []int{0}); h[0] != want {
		t.Errorf("bool payload 2 hashes %x, want TRUE's %x", h[0], want)
	}
}

// BenchmarkHashColumn hashes a 64k-row key column of each kind.
func BenchmarkHashColumn(b *testing.B) {
	const rows = 1 << 16
	r := rand.New(rand.NewSource(1))
	vecs := map[string]*Vec{
		"int":    {Kind: KindInt, I: make([]int64, rows)},
		"float":  {Kind: KindFloat, F: make([]float64, rows)},
		"string": {Kind: KindString, S: make([]string, rows)},
	}
	regions := []string{"eu", "us", "apac", "latam"}
	for i := 0; i < rows; i++ {
		vecs["int"].I[i] = int64(r.Intn(1000))
		vecs["float"].F[i] = float64(r.Intn(10000)) / 4
		vecs["string"].S[i] = regions[r.Intn(len(regions))]
	}
	h := make([]uint64, rows)
	for _, name := range []string{"int", "float", "string"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				HashColumn(vecs[name], nil, h)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
