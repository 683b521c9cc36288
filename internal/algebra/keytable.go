package algebra

import (
	"math"
	"slices"

	"repro/internal/value"
)

// keyTable maps the distinct keys of a batch's key columns to dense ids
// in first-seen order — the one hash table behind batch grouping and the
// batch join's build side. It is open addressing over a power-of-two
// slot array, each slot holding id+1 (0 = empty), and it keeps every
// key's 64-bit hash (value.HashColumn's) and the physical row of its
// first occurrence. A lookup walks the probe sequence comparing hashes
// only; the keys of the rows whose hash matched are then compared one
// column at a time against their candidate's first occurrence. Distinct
// keys with equal hashes (-0.0 and 0.0 hash alike, for one) fail that
// check and are settled row by row, so key equality is exactly the
// row operators' byte-key equality: NULL equals NULL, and INT 1 and
// FLOAT 1.0 are different keys.
type keyTable struct {
	keys   []*value.Vec // key columns the representative rows index
	slots  []int32
	shift  uint     // 64 - log2(len(slots))
	hashes []uint64 // per id
	reps   []int32  // per id: physical row of the key's first occurrence
}

// initialSlots is the starting table size; the table doubles whenever
// it is half full.
const initialSlots = 256

func newKeyTable(keys []*value.Vec) *keyTable {
	return &keyTable{keys: keys, slots: make([]int32, initialSlots), shift: 64 - 8}
}

// home is the first slot probed for hash h. Multiplying by 2^64/phi
// spreads every hash bit into the high bits used as the index, so keys
// whose hashes share their low bits — every row of one hash partition
// does — still scatter.
func (t *keyTable) home(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> t.shift) }

// slotFor returns the slot of the first id whose hash is h, or the empty
// slot that ends h's probe sequence.
func (t *keyTable) slotFor(h uint64) int {
	mask := len(t.slots) - 1
	for s := t.home(h); ; s = (s + 1) & mask {
		if id := t.slots[s]; id == 0 || t.hashes[id-1] == h {
			return s
		}
	}
}

// add stores a new key with hash h first seen at physical row row in
// empty slot s and returns its id.
func (t *keyTable) add(s int, h uint64, row int) int32 {
	id := int32(len(t.hashes))
	t.hashes = append(t.hashes, h)
	t.reps = append(t.reps, int32(row))
	t.slots[s] = id + 1
	if 2*len(t.hashes) > len(t.slots) {
		t.grow()
	}
	return id
}

// grow doubles the slot array and re-inserts every id in id order, so
// ids sharing a hash keep their relative probe order.
func (t *keyTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.shift--
	mask := len(t.slots) - 1
	for id, h := range t.hashes {
		s := t.home(h)
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(id + 1)
	}
}

// group sets ids[i] to the id of the key at entry i (physical row
// sel[i], or i when sel is nil; hash h[i]) of the table's own key
// columns, adding unseen keys. It reports whether a key was added out of
// first-seen order, which only a hash collision between distinct keys
// causes.
func (t *keyTable) group(sel []int32, h []uint64, ids []int32) (reordered bool) {
	check := pooledIDs(len(h))[:0]
	for i, hv := range h {
		s := t.slotFor(hv)
		if id := t.slots[s]; id != 0 {
			ids[i] = id - 1
			check = append(check, int32(i))
			continue
		}
		ids[i] = t.add(s, hv, rowAt(sel, i))
	}
	check, bad := t.verify(t.keys, sel, check, ids)
	slices.Sort(bad)
	for _, i := range bad {
		id, added := t.resolve(t.keys, rowAt(sel, int(i)), h[i], true)
		ids[i] = id
		reordered = reordered || added
	}
	value.PutSel(check)
	value.PutSel(bad)
	return reordered
}

// lookup sets ids[i] to the id of the key at entry i of the given key
// columns (laid out like the table's), or -1 when the table lacks it.
// It only reads the table, so lookups may run concurrently.
func (t *keyTable) lookup(keys []*value.Vec, sel []int32, h []uint64, ids []int32) {
	check := pooledIDs(len(h))[:0]
	for i, hv := range h {
		ids[i] = t.slots[t.slotFor(hv)] - 1
		if ids[i] >= 0 {
			check = append(check, int32(i))
		}
	}
	check, bad := t.verify(keys, sel, check, ids)
	for _, i := range bad {
		ids[i], _ = t.resolve(keys, rowAt(sel, int(i)), h[i], false)
	}
	value.PutSel(check)
	value.PutSel(bad)
}

// verify compares, one key column at a time, the key at each checked
// entry with its candidate id's first occurrence. It returns the
// entries that matched on every column and, separately, those that did
// not (nil when every candidate matched, the common case).
func (t *keyTable) verify(keys []*value.Vec, sel, check, ids []int32) (good, bad []int32) {
	good = check
	for c, pv := range keys {
		bv := t.keys[c]
		n := 0
		keep := func(i int32, eq bool) {
			if eq {
				good[n] = i
				n++
			} else {
				bad = append(bad, i)
			}
		}
		switch {
		case bv.Kind != pv.Kind || bv.Null != nil || pv.Null != nil || bv.Kind == value.KindBool:
			for _, i := range good {
				keep(i, vecEqual(bv, int(t.reps[ids[i]]), pv, rowAt(sel, int(i))))
			}
		case bv.Kind == value.KindInt:
			for _, i := range good {
				keep(i, bv.I[t.reps[ids[i]]] == pv.I[rowAt(sel, int(i))])
			}
		case bv.Kind == value.KindFloat:
			for _, i := range good {
				keep(i, math.Float64bits(bv.F[t.reps[ids[i]]]) == math.Float64bits(pv.F[rowAt(sel, int(i))]))
			}
		case bv.Kind == value.KindString:
			for _, i := range good {
				keep(i, bv.S[t.reps[ids[i]]] == pv.S[rowAt(sel, int(i))])
			}
		default: // kindless columns hold only NULLs, which are equal keys
			n = len(good)
		}
		good = good[:n]
	}
	return good, bad
}

// resolve walks hash h's whole probe sequence comparing full keys — the
// slow path for entries whose first hash match was a different key. It
// returns the matching id, or adds the key when add is set (reporting
// added), or returns -1.
func (t *keyTable) resolve(keys []*value.Vec, row int, h uint64, add bool) (id int32, added bool) {
	mask := len(t.slots) - 1
	for s := t.home(h); ; s = (s + 1) & mask {
		id := t.slots[s] - 1
		if id < 0 {
			if !add {
				return -1, false
			}
			return t.add(s, h, row), true
		}
		if t.hashes[id] == h && keysEqual(t.keys, int(t.reps[id]), keys, row) {
			return id, false
		}
	}
}

func keysEqual(a []*value.Vec, ar int, b []*value.Vec, br int) bool {
	for c := range a {
		if !vecEqual(a[c], ar, b[c], br) {
			return false
		}
	}
	return true
}

// vecEqual reports whether two column values are the same key: both
// NULL, or of one kind with the same payload (floats bit for bit).
func vecEqual(a *value.Vec, ar int, b *value.Vec, br int) bool {
	an, bn := vecNull(a, ar), vecNull(b, br)
	if an || bn {
		return an && bn
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case value.KindBool:
		return (a.I[ar] != 0) == (b.I[br] != 0)
	case value.KindFloat:
		return math.Float64bits(a.F[ar]) == math.Float64bits(b.F[br])
	case value.KindString:
		return a.S[ar] == b.S[br]
	default:
		return a.I[ar] == b.I[br]
	}
}

// vecNull reports whether row r of v reads as NULL; a kindless column
// holds nothing else.
func vecNull(v *value.Vec, r int) bool { return v.IsNull(r) || kindless(v) }

func kindless(v *value.Vec) bool { return v.Kind < value.KindBool || v.Kind > value.KindString }

// rowAt returns the physical row of entry i under selection sel.
func rowAt(sel []int32, i int) int {
	if sel != nil {
		return int(sel[i])
	}
	return i
}
