package storage

import "repro/internal/value"

// HashIndex maps a key (one or more columns) to the row ids holding it.
// It is maintained by the owning Store under the store's lock. Its own
// lookup methods take no lock; readers that can run beside writers go
// through Store.HashLookup, which holds the store's read lock.
type HashIndex struct {
	cols    []int
	buckets map[string][]RowID
}

func newHashIndex(cols []int) *HashIndex {
	return &HashIndex{cols: append([]int(nil), cols...), buckets: map[string][]RowID{}}
}

// Cols returns the indexed column positions.
func (ix *HashIndex) Cols() []int { return append([]int(nil), ix.cols...) }

// Len returns the number of distinct keys.
func (ix *HashIndex) Len() int { return len(ix.buckets) }

func (ix *HashIndex) add(id RowID, t value.Tuple) {
	k := t.KeyOn(ix.cols)
	ix.buckets[k] = append(ix.buckets[k], id)
}

func (ix *HashIndex) remove(id RowID, t value.Tuple) {
	k := t.KeyOn(ix.cols)
	ids := ix.buckets[k]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(ix.buckets, k)
	} else {
		ix.buckets[k] = ids
	}
}

func (ix *HashIndex) clear() { ix.buckets = map[string][]RowID{} }

// Lookup returns the row ids whose indexed columns equal key (one value
// per indexed column).
func (ix *HashIndex) Lookup(key []value.Value) []RowID {
	if len(key) != len(ix.cols) {
		return nil
	}
	var buf []byte
	for _, v := range key {
		buf = value.AppendValue(buf, v)
	}
	ids := ix.buckets[string(buf)]
	return append([]RowID(nil), ids...)
}

// LookupTuple returns the row ids matching the indexed columns of t
// (a probe tuple laid out like the stored schema).
func (ix *HashIndex) LookupTuple(t value.Tuple) []RowID {
	ids := ix.buckets[t.KeyOn(ix.cols)]
	return append([]RowID(nil), ids...)
}
