package algebra

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/value"
)

// This file holds the columnar counterparts of the row operators: Select
// narrows a selection vector without touching tuples, Project remaps
// column pointers, and the hash join and Aggregate work one column at a
// time. Both hash their key columns with value.HashColumn into a []uint64
// and map the hashes to dense key ids through one open-addressing
// keyTable (keytable.go), comparing keys column by column and kind by
// kind — no per-row byte key, no map[string]. The join builds the table
// on one side, probes it with the other and gathers its output
// column-wise; Aggregate numbers groups in first-seen order and then
// folds each aggregate's input column into the row operator's group
// states with a loop per kind. Temporary hash and id buffers come from
// pools. Each operator CONSUMES its input batches: selection vectors of
// consumed inputs go back to the sync.Pool, so a caller must not touch a
// batch after passing it in.

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
// a keyTable over the build keys plus, per distinct key, the chain of
// its rows in build order, linked through next from the key's first
// row. A broadcast join builds it once over the small input and probes
// it with every partition of the big one; Probe only reads it, so
// partitions may probe concurrently.
type BatchHashTable struct {
	build *value.Batch
	cols  []int
	keys  *keyTable
	next  []int32 // per physical build row: the next row with its key, -1 at a chain's end
}

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
		keys:  newKeyTable(keyVecs(build, cols)),
		next:  make([]int32, build.Rows),
	}
	sel, owned := nonNullRows(build, cols) // NULL keys never join
	h := value.GetHashes(selLen(build, sel))
	build.HashRows(cols, sel, h)
	ids := pooledIDs(len(h))
	ht.keys.group(sel, h, ids)
	tail := append(value.GetSel(), ht.keys.reps...)
	for i, id := range ids {
		row := int32(rowAt(sel, i))
		ht.next[row] = -1
		if row != ht.keys.reps[id] {
			ht.next[tail[id]] = row
			tail[id] = row
		}
	}
	value.PutHashes(h)
	value.PutSel(ids)
	value.PutSel(tail)
	if owned {
		value.PutSel(sel)
	}
	bn := build.Len()
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
	sel, owned := nonNullRows(probe, pcols)
	h := value.GetHashes(selLen(probe, sel))
	probe.HashRows(pcols, sel, h)
	ids := pooledIDs(len(h))
	ht.keys.lookup(keyVecs(probe, pcols), sel, h, ids)
	bIdx := value.GetSel()
	pIdx := value.GetSel()
	for i, id := range ids {
		if id < 0 {
			continue
		}
		row := int32(rowAt(sel, i))
		for m := ht.keys.reps[id]; m >= 0; m = ht.next[m] {
			bIdx = append(bIdx, m)
			pIdx = append(pIdx, row)
		}
	}
	stats := Stats{TuplesRead: probe.Len(), Hashes: len(h), TuplesEmitted: len(bIdx)}
	value.PutHashes(h)
	value.PutSel(ids)
	if owned {
		value.PutSel(sel)
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
	value.PutSel(bIdx)
	value.PutSel(pIdx)
	if probe.Sel != nil {
		value.PutSel(probe.Sel)
		probe.Sel = nil
	}
	return out, stats, nil
}

// keyVecs returns b's key column vectors.
func keyVecs(b *value.Batch, cols []int) []*value.Vec {
	vecs := make([]*value.Vec, len(cols))
	for i, c := range cols {
		vecs[i] = b.Cols[c]
	}
	return vecs
}

// nonNullRows returns the selection of b's rows whose key columns are
// all non-NULL: b.Sel itself when no key column can hold a NULL,
// otherwise a pooled vector the caller returns (owned).
func nonNullRows(b *value.Batch, cols []int) (sel []int32, owned bool) {
	nullable := false
	for _, c := range cols {
		v := b.Cols[c]
		nullable = nullable || v.Null != nil || kindless(v)
	}
	if !nullable {
		return b.Sel, false
	}
	sel = value.GetSel()
	n := b.Len()
rows:
	for i := 0; i < n; i++ {
		row := b.Row(i)
		for _, c := range cols {
			if vecNull(b.Cols[c], row) {
				continue rows
			}
		}
		sel = append(sel, int32(row))
	}
	return sel, true
}

// selLen returns the number of rows selection sel holds over b's
// physical rows (all of them when sel is nil).
func selLen(b *value.Batch, sel []int32) int {
	if sel != nil {
		return len(sel)
	}
	return b.Rows
}

// pooledIDs returns a pooled id buffer of length n; return it with
// value.PutSel.
func pooledIDs(n int) []int32 {
	ids := value.GetSel()
	if cap(ids) < n {
		return make([]int32, n)
	}
	return ids[:n]
}

// AggregateBatch groups b by the groupBy columns (empty = one global
// group) and computes the aggregate specs. Grouping hashes the key
// columns one at a time and assigns group ids in first-seen order
// through a keyTable; each aggregate then folds its input column into
// the per-group states one spec at a time. Output schema, group order
// (first-seen) and NULL handling match the row Aggregate exactly; the
// result is a row-oriented Relation (aggregation is a materialization
// point). b is consumed.
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

	n := b.Len()
	gids := pooledIDs(n)
	var keys *keyTable
	groups := 1 // a global aggregate emits one row, even over no input
	var order []int32
	if len(groupBy) > 0 {
		keys = newKeyTable(keyVecs(b, groupBy))
		h := value.GetHashes(n)
		b.HashRows(groupBy, b.Sel, h)
		if keys.group(b.Sel, h, gids) {
			order = firstSeen(gids, len(keys.hashes))
		}
		value.PutHashes(h)
		groups = len(keys.hashes)
	} else {
		clear(gids)
	}

	states := make([]aggState, groups*len(specs)) // spec-major
	for si, sp := range specs {
		st := states[si*groups : (si+1)*groups]
		if sp.Col < 0 {
			for _, g := range gids {
				st[g].count++ // COUNT(*) counts rows, NULLs included
			}
			continue
		}
		observeColumn(st, sp.Func, b.Cols[sp.Col], b.Sel, gids)
	}

	w := len(cols)
	flat := make([]value.Value, groups*w)
	out.Tuples = make([]value.Tuple, groups)
	for k := range out.Tuples {
		g := k
		if order != nil {
			g = int(order[k])
		}
		row := flat[k*w : k*w : (k+1)*w]
		for _, c := range groupBy {
			row = append(row, b.Cols[c].Value(int(keys.reps[g])))
		}
		for si, sp := range specs {
			row = append(row, states[si*groups+g].result(sp.Func))
		}
		out.Tuples[k] = row
	}
	value.PutSel(gids)
	if b.Sel != nil {
		value.PutSel(b.Sel)
		b.Sel = nil
	}
	return out, Stats{TuplesRead: n, TuplesEmitted: out.Len(), Hashes: n}, nil
}

// firstSeen lists group ids in the order of their first row.
func firstSeen(gids []int32, groups int) []int32 {
	order := make([]int32, 0, groups)
	seen := make([]bool, groups)
	for _, g := range gids {
		if !seen[g] {
			seen[g] = true
			order = append(order, g)
		}
	}
	return order
}

// observeColumn folds input column vec into one aggregate's per-group
// states, entry i (physical row sel[i], or i when sel is nil) going to
// group gids[i]. Int, float and string inputs run a typed loop that
// updates exactly the fields f's result reads, with aggState.observe's
// arithmetic and ordering; other kinds go through observe itself.
func observeColumn(st []aggState, f AggFunc, vec *value.Vec, sel, gids []int32) {
	nulls := vec.Null
	typed := vec.Kind == value.KindInt || vec.Kind == value.KindFloat || vec.Kind == value.KindString
	switch {
	case !typed || (vec.Kind == value.KindString && (f == Sum || f == Avg)):
		for i, g := range gids {
			st[g].observe(vec.Value(rowAt(sel, i)))
		}
	case f == Count:
		for i, g := range gids {
			if r := rowAt(sel, i); nulls == nil || !nulls[r] {
				st[g].count++
			}
		}
	case vec.Kind == value.KindInt && (f == Sum || f == Avg):
		for i, g := range gids {
			if r := rowAt(sel, i); nulls == nil || !nulls[r] {
				s, x := &st[g], vec.I[r]
				s.count++
				s.sumI += x
				s.sumF += float64(x)
			}
		}
	case vec.Kind == value.KindFloat && (f == Sum || f == Avg):
		for i, g := range gids {
			if r := rowAt(sel, i); nulls == nil || !nulls[r] {
				s := &st[g]
				s.count++
				s.isFloat = true
				s.sumF += vec.F[r]
			}
		}
	case vec.Kind == value.KindInt: // MIN, MAX
		for i, g := range gids {
			if r := rowAt(sel, i); nulls == nil || !nulls[r] {
				s, x := &st[g], vec.I[r]
				if !s.started || (f == Min && x < s.min.Int()) || (f == Max && x > s.min.Int()) {
					s.extreme(value.NewInt(x))
				}
			}
		}
	case vec.Kind == value.KindFloat: // MIN, MAX
		for i, g := range gids {
			if r := rowAt(sel, i); nulls == nil || !nulls[r] {
				s, x := &st[g], vec.F[r]
				if !s.started || (f == Min && floatLess(x, s.min.Float())) || (f == Max && floatLess(s.min.Float(), x)) {
					s.extreme(value.NewFloat(x))
				}
			}
		}
	default: // MIN, MAX of a string column
		for i, g := range gids {
			if r := rowAt(sel, i); nulls == nil || !nulls[r] {
				s, x := &st[g], vec.S[r]
				if !s.started || (f == Min && x < s.min.Str()) || (f == Max && x > s.min.Str()) {
					s.extreme(value.NewString(x))
				}
			}
		}
	}
}

// extreme records v as the running MIN or MAX of a state that tracks
// only one of them (min and max then always agree).
func (st *aggState) extreme(v value.Value) {
	st.min, st.max, st.started = v, v, true
}

// floatLess orders floats as value.Compare does: NaN before every number.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }
