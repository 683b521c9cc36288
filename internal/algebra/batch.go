package algebra

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/value"
)

// This file holds the columnar counterparts of the row operators: Select
// narrows a selection vector without touching tuples, Project remaps
// column pointers, the hash join builds and probes over column slices and
// gathers its output column-wise, and Aggregate folds column values into
// the same group states the row operator uses. Each operator CONSUMES its
// input batches: selection vectors of consumed inputs go back to the
// sync.Pool, so a caller must not touch a batch after passing it in.

// SelectBatch filters b with a vectorized predicate, producing a batch
// that shares b's column vectors under a narrowed selection vector — no
// tuple is materialized. b is consumed.
func SelectBatch(b *value.Batch, f *expr.VecFilter) (*value.Batch, Stats, error) {
	dst := value.GetSel()
	dst, err := f.Filter(b, b.Sel, dst)
	if err != nil {
		value.PutSel(dst)
		return nil, Stats{}, fmt.Errorf("algebra: select: %w", err)
	}
	read := b.Len()
	if b.Sel != nil {
		value.PutSel(b.Sel)
		b.Sel = nil
	}
	out := &value.Batch{Schema: b.Schema, Cols: b.Cols, Sel: dst, Rows: b.Rows}
	return out, Stats{TuplesRead: read, TuplesEmitted: len(dst)}, nil
}

// ProjectBatch restricts b to the given column positions — a pure column
// remap sharing vectors and selection with b.
func ProjectBatch(b *value.Batch, cols []int, schema *value.Schema) (*value.Batch, Stats, error) {
	for _, c := range cols {
		if c < 0 || c >= len(b.Cols) {
			return nil, Stats{}, fmt.Errorf("algebra: project column %d out of range for %s", c, b.Schema)
		}
	}
	n := b.Len()
	return b.Project(cols, schema), Stats{TuplesRead: n, TuplesEmitted: n}, nil
}

// HashJoinBatch equi-joins two batches on the given key columns, building
// a hash table of physical row indices on the smaller input and gathering
// the matches column-wise into a dense output batch. Output column order
// is l ++ r and match order follows the row HashJoin exactly (probe
// order, build-insertion order within a key). Both inputs are consumed.
func HashJoinBatch(l, r *value.Batch, lcols, rcols []int) (*value.Batch, Stats, error) {
	if len(lcols) == 0 || len(lcols) != len(rcols) {
		return nil, Stats{}, fmt.Errorf("algebra: join needs matching non-empty key lists, got %v and %v", lcols, rcols)
	}
	read := l.Len() + r.Len()
	buildLeft := l.Len() <= r.Len()
	build, probe := l, r
	bcols, pcols := lcols, rcols
	if !buildLeft {
		build, probe = r, l
		bcols, pcols = rcols, lcols
	}
	ht, bst, err := BuildBatchHashTable(build, bcols)
	if err != nil {
		return nil, Stats{}, err
	}
	out, pst, err := ht.Probe(probe, pcols, buildLeft)
	if err != nil {
		return nil, Stats{}, err
	}
	if build.Sel != nil {
		value.PutSel(build.Sel)
		build.Sel = nil
	}
	return out, Stats{TuplesRead: read, Hashes: bst.Hashes + pst.Hashes, TuplesEmitted: pst.TuplesEmitted}, nil
}

// BatchHashTable is a hash-join build side over a batch's physical rows:
// one chain per distinct key, linked through next so appending a row
// never re-allocates the map key string. A broadcast join builds it once
// over the small input and probes it with every partition of the big
// one; Probe only reads it, so partitions may probe concurrently.
type BatchHashTable struct {
	build *value.Batch
	cols  []int
	table map[string]*rowChain
	next  []int32
}

type rowChain struct{ head, tail int32 }

// BuildBatchHashTable hashes the selected rows of build on cols. The
// build batch is not consumed: the table keeps reading its columns, and
// the caller frees its selection vector after the last probe.
func BuildBatchHashTable(build *value.Batch, cols []int) (*BatchHashTable, Stats, error) {
	for _, c := range cols {
		if c < 0 || c >= len(build.Cols) {
			return nil, Stats{}, fmt.Errorf("algebra: build key %d out of range for %s", c, build.Schema)
		}
	}
	ht := &BatchHashTable{
		build: build,
		cols:  cols,
		table: make(map[string]*rowChain, build.Len()),
		next:  make([]int32, build.Rows),
	}
	var keyBuf []byte
	bn := build.Len()
	for i := 0; i < bn; i++ {
		row := int32(build.Row(i))
		if batchNullOn(build, row, cols) {
			continue // NULL keys never join
		}
		keyBuf = build.AppendKey(keyBuf[:0], int(row), cols)
		ht.next[row] = -1
		if c, ok := ht.table[string(keyBuf)]; ok {
			ht.next[c.tail] = row
			c.tail = row
		} else {
			ht.table[string(keyBuf)] = &rowChain{head: row, tail: row}
		}
	}
	return ht, Stats{TuplesRead: bn, Hashes: bn}, nil
}

// Probe joins probe against the table in probe order, gathering the
// matches column-wise. buildLeft selects the output column order: build
// ++ probe when true, probe ++ build when false. Stats counts only the
// probe side's work. probe is consumed.
func (ht *BatchHashTable) Probe(probe *value.Batch, pcols []int, buildLeft bool) (*value.Batch, Stats, error) {
	if len(pcols) != len(ht.cols) {
		return nil, Stats{}, fmt.Errorf("algebra: probe keys %v against build keys %v", pcols, ht.cols)
	}
	for _, c := range pcols {
		if c < 0 || c >= len(probe.Cols) {
			return nil, Stats{}, fmt.Errorf("algebra: probe key %d out of range for %s", c, probe.Schema)
		}
	}
	stats := Stats{TuplesRead: probe.Len()}
	bIdx := value.GetSel()
	pIdx := value.GetSel()
	var keyBuf []byte
	pn := probe.Len()
	for i := 0; i < pn; i++ {
		row := int32(probe.Row(i))
		if batchNullOn(probe, row, pcols) {
			continue
		}
		stats.Hashes++
		keyBuf = probe.AppendKey(keyBuf[:0], int(row), pcols)
		c, ok := ht.table[string(keyBuf)]
		if !ok {
			continue
		}
		for m := c.head; ; m = ht.next[m] {
			bIdx = append(bIdx, m)
			pIdx = append(pIdx, row)
			if m == c.tail {
				break
			}
		}
	}

	first, second := ht.build, probe
	fIdx, sIdx := bIdx, pIdx
	if !buildLeft {
		first, second = probe, ht.build
		fIdx, sIdx = pIdx, bIdx
	}
	out := &value.Batch{
		Schema: first.Schema.Concat(second.Schema),
		Cols:   make([]*value.Vec, 0, len(first.Cols)+len(second.Cols)),
		Rows:   len(fIdx),
	}
	for _, vec := range first.Cols {
		out.Cols = append(out.Cols, vec.Gather(fIdx))
	}
	for _, vec := range second.Cols {
		out.Cols = append(out.Cols, vec.Gather(sIdx))
	}
	stats.TuplesEmitted = len(bIdx)
	value.PutSel(bIdx)
	value.PutSel(pIdx)
	if probe.Sel != nil {
		value.PutSel(probe.Sel)
		probe.Sel = nil
	}
	return out, stats, nil
}

func batchNullOn(b *value.Batch, row int32, cols []int) bool {
	for _, c := range cols {
		if b.Cols[c].IsNull(int(row)) {
			return true
		}
	}
	return false
}

// AggregateBatch groups b by the groupBy columns (empty = one global
// group) and computes the aggregate specs, reading input values straight
// from the column vectors. Output schema, group order (first-seen) and
// NULL handling match the row Aggregate exactly; the result is a
// row-oriented Relation (aggregation is a materialization point). b is
// consumed.
func AggregateBatch(b *value.Batch, groupBy []int, specs []AggSpec) (*value.Relation, Stats, error) {
	for _, c := range groupBy {
		if c < 0 || c >= len(b.Cols) {
			return nil, Stats{}, fmt.Errorf("algebra: group-by column %d out of range for %s", c, b.Schema)
		}
	}
	for _, sp := range specs {
		if sp.Col >= len(b.Cols) {
			return nil, Stats{}, fmt.Errorf("algebra: aggregate column %d out of range for %s", sp.Col, b.Schema)
		}
		if sp.Col < 0 && sp.Func != Count {
			return nil, Stats{}, fmt.Errorf("algebra: %s(*) is not defined", sp.Func)
		}
	}

	// Output schema, mirroring the row Aggregate's naming.
	cols := make([]value.Column, 0, len(groupBy)+len(specs))
	for _, c := range groupBy {
		cols = append(cols, b.Schema.Column(c))
	}
	for _, sp := range specs {
		name := sp.As
		if name == "" {
			if sp.Col < 0 {
				name = "COUNT(*)"
			} else {
				name = fmt.Sprintf("%s(%s)", sp.Func, b.Schema.Column(sp.Col).Name)
			}
		}
		k := value.KindInt
		if sp.Col >= 0 {
			k = resultKind(sp.Func, b.Schema.Column(sp.Col).Kind)
		}
		cols = append(cols, value.Column{Name: name, Kind: k})
	}
	out := value.NewRelation(value.NewSchema(cols...))

	type group struct {
		key    value.Tuple
		states []aggState
	}
	groups := map[string]*group{}
	var order []string
	var keyBuf []byte
	n := b.Len()
	for i := 0; i < n; i++ {
		row := b.Row(i)
		keyBuf = b.AppendKey(keyBuf[:0], row, groupBy)
		g := groups[string(keyBuf)]
		if g == nil {
			k := string(keyBuf)
			key := make(value.Tuple, len(groupBy))
			for gi, c := range groupBy {
				key[gi] = b.Cols[c].Value(row)
			}
			g = &group{key: key, states: make([]aggState, len(specs))}
			groups[k] = g
			order = append(order, k)
		}
		for si, sp := range specs {
			if sp.Col < 0 {
				g.states[si].count++ // COUNT(*) counts rows, NULLs included
			} else {
				g.states[si].observe(b.Cols[sp.Col].Value(row))
			}
		}
	}
	if len(groupBy) == 0 && len(order) == 0 {
		groups[""] = &group{key: value.Tuple{}, states: make([]aggState, len(specs))}
		order = append(order, "")
	}
	for _, k := range order {
		g := groups[k]
		row := make(value.Tuple, 0, len(groupBy)+len(specs))
		row = append(row, g.key...)
		for si, sp := range specs {
			row = append(row, g.states[si].result(sp.Func))
		}
		out.Tuples = append(out.Tuples, row)
	}
	if b.Sel != nil {
		value.PutSel(b.Sel)
		b.Sel = nil
	}
	return out, Stats{TuplesRead: n, TuplesEmitted: out.Len(), Hashes: n}, nil
}
