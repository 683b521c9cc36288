package value

import (
	"math"
	"sync"
)

// Key hashing. Hash64 is the one definition of a value's hash; the
// row helpers (HashTuple, Batch.HashRow) fold it per value, and
// HashColumn folds a whole key column at a time with a loop per kind.
// All of them produce the same bits for the same key, so a columnar
// exchange routes every row to the same bucket as the row executor, and
// a batch join's build and probe sides hash identically.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// kindSeed is the FNV-1a state after mixing a value's kind byte.
func kindSeed(k Kind) uint64 { return (fnvOffset64 ^ uint64(k)) * fnvPrime64 }

// mixWord mixes the eight little-endian bytes of w into h, unrolled so
// the shifts are constants.
func mixWord(h, w uint64) uint64 {
	h = (h ^ (w & 0xff)) * fnvPrime64
	h = (h ^ (w >> 8 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 16 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 24 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 32 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 40 & 0xff)) * fnvPrime64
	h = (h ^ (w >> 48 & 0xff)) * fnvPrime64
	return (h ^ (w >> 56)) * fnvPrime64
}

// mixString mixes the bytes of s into h.
func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashFloat hashes a float payload. A float with an integral value
// hashes as the int, so numerically equal ints and floats collide.
func hashFloat(f float64) uint64 {
	if f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
		return mixWord(kindSeed(KindInt), uint64(int64(f)))
	}
	return mixWord(kindSeed(KindFloat), math.Float64bits(f))
}

// Hash64 returns a 64-bit FNV-1a hash of v's canonical encoding. Numeric
// cross-kind equality is respected: an int and a float that compare equal
// hash identically.
func Hash64(v Value) uint64 {
	switch v.kind {
	case KindBool, KindInt:
		return mixWord(kindSeed(v.kind), v.num)
	case KindFloat:
		return hashFloat(math.Float64frombits(v.num))
	case KindString:
		return mixString(kindSeed(KindString), v.str)
	}
	return kindSeed(v.kind)
}

// HashTuple hashes the given columns of t, for partitioning and hash joins.
func HashTuple(t Tuple, idxs []int) uint64 {
	h := uint64(fnvOffset64)
	for _, ix := range idxs {
		h = (h ^ Hash64(t[ix])) * fnvPrime64
	}
	return h
}

// HashRow hashes the given columns of physical row `row`, producing the
// same value as HashTuple over the materialized tuple.
func (b *Batch) HashRow(row int, idxs []int) uint64 {
	h := uint64(fnvOffset64)
	for _, ix := range idxs {
		h = (h ^ Hash64(b.Cols[ix].Value(row))) * fnvPrime64
	}
	return h
}

// HashRows sets h[i] to HashRow(sel[i], idxs) — row i when sel is nil —
// for every entry of h, hashing one key column at a time.
func (b *Batch) HashRows(idxs []int, sel []int32, h []uint64) {
	for i := range h {
		h[i] = fnvOffset64
	}
	for _, ix := range idxs {
		HashColumn(b.Cols[ix], sel, h)
	}
}

// rowAt returns the physical row of entry i under selection sel.
func rowAt(sel []int32, i int) int {
	if sel != nil {
		return int(sel[i])
	}
	return i
}

// HashColumn folds vec's values into running row hashes: entry i of h
// takes the value at physical row sel[i] (row i when sel is nil), the
// step HashTuple takes per key column. Each kind has its own loop, and
// NULLs are read from the Null bitmap.
func HashColumn(vec *Vec, sel []int32, h []uint64) {
	nulls := vec.Null
	hNull := kindSeed(KindNull)
	switch vec.Kind {
	case KindBool, KindInt:
		seed := kindSeed(vec.Kind)
		bools := vec.Kind == KindBool
		for i := range h {
			r := rowAt(sel, i)
			x := hNull
			if nulls == nil || !nulls[r] {
				w := uint64(vec.I[r])
				if bools && w != 0 {
					w = 1
				}
				x = mixWord(seed, w)
			}
			h[i] = (h[i] ^ x) * fnvPrime64
		}
	case KindFloat:
		for i := range h {
			r := rowAt(sel, i)
			x := hNull
			if nulls == nil || !nulls[r] {
				x = hashFloat(vec.F[r])
			}
			h[i] = (h[i] ^ x) * fnvPrime64
		}
	case KindString:
		seed := kindSeed(KindString)
		for i := range h {
			r := rowAt(sel, i)
			x := hNull
			if nulls == nil || !nulls[r] {
				x = mixString(seed, vec.S[r])
			}
			h[i] = (h[i] ^ x) * fnvPrime64
		}
	default: // a column with no kind holds only NULLs
		for i := range h {
			h[i] = (h[i] ^ hNull) * fnvPrime64
		}
	}
}

var hashPool = sync.Pool{
	New: func() any {
		s := make([]uint64, 0, 1024)
		return &s
	},
}

// GetHashes returns a pooled hash buffer of length n.
func GetHashes(n int) []uint64 {
	h := *hashPool.Get().(*[]uint64)
	if cap(h) < n {
		return make([]uint64, n)
	}
	return h[:n]
}

// PutHashes returns a hash buffer to the pool. Oversized buffers are
// dropped to bound pooled memory.
func PutHashes(h []uint64) {
	if cap(h) == 0 || cap(h) > maxPooledSel {
		return
	}
	hashPool.Put(&h)
}
