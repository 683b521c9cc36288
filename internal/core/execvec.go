package core

// The partitioned dataflow executor. With Config.Vectorized on, every
// partitioned plan node — fragment Scan, Exchange, colocated /
// repartition / broadcast Join, pushdown Aggregate, parallel Sort and
// Distinct, and Select / Project above them — runs here, under either
// MVCC mode and inside transactions alike. Intermediates are vecParts:
// value.Batch partitions (typed column vectors plus a selection vector)
// that stay on the PE that computed them until an Exchange moves them or
// the root gathers them. Operators run partition-parallel on the owning
// PEs and charge those PEs' virtual clocks: selection narrows the
// selection vector, a column projection remaps column pointers, hash
// joins build and probe over column slices, and partial aggregation
// folds column values directly. Tuples materialize only at the root (or
// at a Sort/Distinct merge, which are row materialization points).
//
// Nothing declines part-way. OFM.ScanBatch answers the scans the column
// cache cannot (pending transaction writes, hash-index equalities) from
// its row Scan, transposed. Nodes without a partitioned implementation
// and CSE-shared scans enter as a coordinator singleton batch; a
// computed projection materializes each partition, applies the compiled
// projector and transposes back. exec.go is the central row executor:
// the Vectorized=false baseline, and the home of plans rooted at an
// IndexProbe, central join, coordinator aggregate or Limit.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/value"
)

// vecParts is a partitioned intermediate: parts[i] lives on PE pes[i].
// Slots align positionally between siblings: exchanges with equal
// fan-out target the same PE list, and natively co-fragmented scans pair
// fragment by fragment.
type vecParts struct {
	parts []*value.Batch
	pes   []int
}

// batched reports whether n runs on the batch dataflow. It is both the
// executor's dispatch (exec) and EXPLAIN's execution line.
func (e *Engine) batched(n plan.Node) bool {
	if !e.vectorized {
		return false
	}
	switch t := n.(type) {
	case *plan.Aggregate:
		return t.Pushdown
	case *plan.Sort:
		return t.Parallel
	case *plan.Distinct:
		return t.Parallel
	}
	return partitioned(n)
}

// partitioned reports whether n has a partitioned implementation that
// leaves its output spread over the PEs.
func partitioned(n plan.Node) bool {
	switch t := n.(type) {
	case *plan.Scan:
		// Shared CSE scans cache one materialized relation that several
		// plan parents alias; they run centrally.
		return !t.Shared
	case *plan.Exchange:
		return true
	case *plan.Join:
		return t.Method == plan.JoinColocated || t.Method == plan.JoinRepartition || t.Method == plan.JoinBroadcast
	case *plan.Select:
		return partitioned(t.Child)
	case *plan.Project:
		return partitioned(t.Child)
	}
	return false
}

// planVectorized reports whether the dispatcher sends any node of the
// plan to the batch dataflow — EXPLAIN's execution line. Central nodes
// run their children through the same dispatch, so the walk stops at
// the first batched node on each path.
func (e *Engine) planVectorized(n plan.Node) bool {
	if e.batched(n) {
		return true
	}
	for _, c := range n.Children() {
		if e.planVectorized(c) {
			return true
		}
	}
	return false
}

// execBatch runs a batched node and materializes its result at the
// coordinator.
func (e *Engine) execBatch(ctx *execCtx, n plan.Node) (*value.Relation, error) {
	switch t := n.(type) {
	case *plan.Aggregate:
		return e.execVecAggregate(ctx, t)
	case *plan.Sort:
		return e.execVecSort(ctx, t)
	case *plan.Distinct:
		return e.execVecDistinct(ctx, t)
	}
	vp, err := e.execVecPart(ctx, n)
	if err != nil {
		return nil, err
	}
	return e.gatherVec(ctx, vp, n.Schema()), nil
}

// execVecPart evaluates a subtree into a partitioned intermediate. Nodes
// without a partitioned implementation materialize through the
// dispatcher and enter as a coordinator singleton, which a parent
// Exchange can spread back out.
func (e *Engine) execVecPart(ctx *execCtx, n plan.Node) (*vecParts, error) {
	switch t := n.(type) {
	case *plan.Scan:
		if !t.Shared {
			return e.execVecScan(ctx, t)
		}
	case *plan.Select:
		return e.execVecSelect(ctx, t)
	case *plan.Project:
		return e.execVecProject(ctx, t)
	case *plan.Exchange:
		return e.execVecExchange(ctx, t)
	case *plan.Join:
		if partitioned(t) {
			return e.execVecJoin(ctx, t)
		}
	}
	rel, err := e.exec(ctx, n)
	if err != nil {
		return nil, err
	}
	b, err := toBatch(rel)
	if err != nil {
		return nil, err
	}
	return &vecParts{parts: []*value.Batch{b}, pes: []int{ctx.s.pe}}, nil
}

// toBatch transposes a materialized relation into a batch.
func toBatch(rel *value.Relation) (*value.Batch, error) {
	b := value.NewBatchFrom(rel.Schema, rel.Tuples)
	if b == nil {
		return nil, fmt.Errorf("core: intermediate %s has a mixed-kind column", rel.Schema)
	}
	return b, nil
}

// exchangeTargets maps n partition slots onto PEs, deterministically
// spread over the machine — sibling exchanges with equal n always agree,
// which is what keeps hash buckets of a repartitioned join aligned.
func (e *Engine) exchangeTargets(n int) []int {
	num := e.m.NumPEs()
	out := make([]int, n)
	for i := range out {
		out[i] = i * num / n
	}
	return out
}

// eachPart runs fn once per partition slot concurrently and returns the
// first error. Per-slot work charges only that slot's PE, so virtual
// cost accounting is independent of host scheduling.
func eachPart(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// execVecScan scans a table's fragments into per-fragment batches that
// stay on the fragment PEs.
func (e *Engine) execVecScan(ctx *execCtx, sc *plan.Scan) (*vecParts, error) {
	var parts []*value.Batch
	pes, err := e.scanFragments(ctx, sc, func(n int) { parts = make([]*value.Batch, n) },
		func(i, _ int, b *value.Batch) error {
			parts[i] = b
			return nil
		})
	if err != nil {
		vecFree(&vecParts{parts: parts})
		return nil, err
	}
	return &vecParts{parts: parts, pes: pes}, nil
}

// scanFragments runs OFM.ScanBatch on every fragment the scan's
// predicate cannot prune, in parallel, and hands each fragment's batch
// (schema sc.Out) and PE to use on that fragment's goroutine: each
// fragment filters where it lives, over its column cache with compiled
// vector kernels where it can. alloc sizes the caller's slots first.
// Cache rebuild bytes are charged to the statement's tenant budget —
// the build is this statement's materialization.
func (e *Engine) scanFragments(ctx *execCtx, sc *plan.Scan, alloc func(n int), use func(i, pe int, b *value.Batch) error) ([]int, error) {
	t, err := e.lookupTable(sc.Table)
	if err != nil {
		return nil, err
	}
	frags := e.pruneFragments(t, sc.Pred)
	if err := e.lockFragments(ctx, t, frags); err != nil {
		return nil, err
	}
	pes := make([]int, len(frags))
	for i, fi := range frags {
		pes[i] = t.frags[fi].pe
	}
	alloc(len(frags))
	var built atomic.Int64
	err = eachPart(len(frags), func(i int) error {
		b, bi, err := t.frags[frags[i]].ofm.ScanBatch(ctx.view, sc.Pred, nil)
		built.Add(bi)
		if err != nil {
			return err
		}
		return use(i, pes[i], &value.Batch{Schema: sc.Out, Cols: b.Cols, Sel: b.Sel, Rows: b.Rows})
	})
	if ctx.mem != nil && built.Load() > 0 {
		// A breach is sticky: breach() in execPlan surfaces it.
		_ = ctx.mem.charge(built.Load())
	}
	return pes, err
}

// execVecSelect narrows every partition's selection vector where it
// lives. The vectorized filter is stateless, so one compilation is
// shared across all slots.
func (e *Engine) execVecSelect(ctx *execCtx, s *plan.Select) (*vecParts, error) {
	child, err := e.execVecPart(ctx, s.Child)
	if err != nil {
		return nil, err
	}
	f, err := expr.CompileVecFilter(expr.Clone(s.Pred), s.Child.Schema())
	if err != nil {
		vecFree(child)
		return nil, err
	}
	parts := make([]*value.Batch, len(child.parts))
	err = eachPart(len(child.parts), func(i int) error {
		out, st, err := algebra.SelectBatch(child.parts[i], f)
		if err != nil {
			return err
		}
		e.m.PE(child.pes[i]).Advance(e.m.Cost().ScanCost(st.TuplesRead, true))
		parts[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &vecParts{parts: parts, pes: child.pes}, nil
}

// execVecProject computes the output columns on every partition where
// it lives. A pure column list is a pointer remap; computed expressions
// materialize the partition, run the compiled projector (compiled per
// slot, since it keeps scratch state) and transpose back.
func (e *Engine) execVecProject(ctx *execCtx, p *plan.Project) (*vecParts, error) {
	child, err := e.execVecPart(ctx, p.Child)
	if err != nil {
		return nil, err
	}
	schema := p.Child.Schema()
	exprs := make([]expr.Expr, len(p.Exprs))
	for i, ex := range p.Exprs {
		exprs[i] = expr.Clone(ex)
	}
	idxs, remap := expr.ColumnIndices(exprs, schema)
	parts := make([]*value.Batch, len(child.parts))
	err = eachPart(len(child.parts), func(i int) error {
		if remap {
			out, st, err := algebra.ProjectBatch(child.parts[i], idxs, p.Out)
			if err != nil {
				return err
			}
			e.m.PE(child.pes[i]).Advance(e.m.Cost().BuildCost(st.TuplesEmitted))
			parts[i] = out
			return nil
		}
		rel := child.parts[i].Materialize()
		vecFreeBatch(child.parts[i])
		slotExprs := make([]expr.Expr, len(p.Exprs))
		for k, ex := range p.Exprs {
			slotExprs[k] = expr.Clone(ex)
		}
		proj, err := expr.CompileProjector(slotExprs, p.Names, schema)
		if err != nil {
			return err
		}
		out, st, err := algebra.ProjectExprs(rel, proj)
		if err != nil {
			return err
		}
		out.Schema = p.Out
		e.m.PE(child.pes[i]).Advance(e.m.Cost().BuildCost(st.TuplesEmitted))
		parts[i], err = toBatch(out)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &vecParts{parts: parts, pes: child.pes}, nil
}

// execVecExchange moves a partitioned intermediate: hash exchanges
// bucket every source partition by the FNV tuple hash and ship each
// bucket to its target PE as a selection over the source columns;
// singleton exchanges gather at the coordinator. Broadcast exchanges
// exist only as the small side of a broadcast join, which consumes them
// (execVecBroadcastJoin builds the replicated hash table once).
func (e *Engine) execVecExchange(ctx *execCtx, x *plan.Exchange) (*vecParts, error) {
	if x.Part.Kind == plan.PartBroadcast {
		// The optimizer produced a shape the executor has no semantics
		// for — fail loudly rather than guess.
		return nil, fmt.Errorf("core: standalone broadcast exchange outside a broadcast join")
	}
	child, err := e.execVecPart(ctx, x.Child)
	if err != nil {
		return nil, err
	}
	schema := x.Child.Schema()
	if x.Part.Kind == plan.PartSingleton {
		b := e.gatherVecBatch(ctx, child, schema)
		return &vecParts{parts: []*value.Batch{b}, pes: []int{ctx.s.pe}}, nil
	}
	n := x.Part.N
	if n < 1 {
		n = len(child.parts)
	}
	targets := e.exchangeTargets(n)
	// Phase 1: every source splits its partition and stamps all of its
	// bucket departures on its own clock — before any receiver advances.
	// A PE that is both source and target of this exchange (the common
	// case when consecutive exchanges share a fan-out) therefore sends
	// from its pre-receive clock; without the two-phase stamping,
	// arrivals would cascade sender-to-sender and serialize the whole
	// stage. Source slots are grouped by owning PE and processed in slot
	// order within one goroutine: Depart is an Advance plus a separate
	// clock read, so stamps on a shared PE are only deterministic when
	// serialized.
	perSrc := make([][]*value.Batch, len(child.parts))
	departs := make([][]int64, len(child.parts)) // ns on the source clock, 0 = nothing sent
	srcsByPE := map[int][]int{}
	var peOrder []int
	for i, pe := range child.pes {
		if _, seen := srcsByPE[pe]; !seen {
			peOrder = append(peOrder, pe)
		}
		srcsByPE[pe] = append(srcsByPE[pe], i)
	}
	err = eachPart(len(peOrder), func(k int) error {
		pe := peOrder[k]
		for _, i := range srcsByPE[pe] {
			b := child.parts[i]
			bn := b.Len()
			if bn == 0 {
				continue
			}
			h := value.GetHashes(bn)
			b.HashRows(x.Part.Keys, b.Sel, h)
			sels := make([][]int32, n)
			for li, hv := range h {
				bkt := hv % uint64(n)
				sels[bkt] = append(sels[bkt], int32(b.Row(li)))
			}
			value.PutHashes(h)
			e.m.PE(pe).Advance(e.m.Cost().HashCost(bn))
			buckets := make([]*value.Batch, n)
			dep := make([]int64, n)
			for bkt, sel := range sels {
				if len(sel) == 0 {
					continue
				}
				buckets[bkt] = &value.Batch{Schema: schema, Cols: b.Cols, Sel: sel, Rows: b.Rows}
				if pe != targets[bkt] {
					dep[bkt] = int64(e.m.Depart(pe, buckets[bkt].Size()))
				}
			}
			vecFreeBatch(b)
			perSrc[i] = buckets
			departs[i] = dep
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2: each target advances to the latest arrival headed its way
	// and assembles its partition in source order (deterministic row
	// order regardless of host scheduling).
	parts := make([]*value.Batch, n)
	for bkt := 0; bkt < n; bkt++ {
		var pieces []*value.Batch
		for i := range perSrc {
			if perSrc[i] == nil || perSrc[i][bkt] == nil {
				continue
			}
			piece := perSrc[i][bkt]
			if departs[i][bkt] > 0 {
				e.m.Arrive(child.pes[i], targets[bkt], piece.Size(), time.Duration(departs[i][bkt]))
			}
			pieces = append(pieces, piece)
		}
		parts[bkt] = value.ConcatBatches(schema, pieces)
	}
	return &vecParts{parts: parts, pes: targets}, nil
}

// execVecJoin hash-joins aligned slots in parallel on the left slot's
// PE, finishing each output partition in place (swap restore as a
// column reorder, residual as a vector kernel). Misaligned inputs are
// gathered and joined as one slot at the coordinator.
func (e *Engine) execVecJoin(ctx *execCtx, j *plan.Join) (*vecParts, error) {
	var residual *expr.VecFilter
	if j.Residual != nil {
		var err error
		if residual, err = expr.CompileVecFilter(expr.Clone(j.Residual), j.Out); err != nil {
			return nil, err
		}
	}
	if j.Method == plan.JoinBroadcast {
		if x, ok := j.Left.(*plan.Exchange); ok && x.Part.Kind == plan.PartBroadcast {
			return e.execVecBroadcastJoin(ctx, j, x.Child, j.Right, true, residual)
		}
		if x, ok := j.Right.(*plan.Exchange); ok && x.Part.Kind == plan.PartBroadcast {
			return e.execVecBroadcastJoin(ctx, j, x.Child, j.Left, false, residual)
		}
	}
	l, err := e.execVecPart(ctx, j.Left)
	if err != nil {
		return nil, err
	}
	r, err := e.execVecPart(ctx, j.Right)
	if err != nil {
		vecFree(l)
		return nil, err
	}
	if len(l.parts) != len(r.parts) || j.Method == plan.JoinBroadcast {
		// Misaligned shapes (or a broadcast join without its marker):
		// join the two gathered sides at the coordinator.
		l = &vecParts{parts: []*value.Batch{e.gatherVecBatch(ctx, l, j.Left.Schema())}, pes: []int{ctx.s.pe}}
		r = &vecParts{parts: []*value.Batch{e.gatherVecBatch(ctx, r, j.Right.Schema())}, pes: []int{ctx.s.pe}}
	}
	parts := make([]*value.Batch, len(l.parts))
	err = eachPart(len(l.parts), func(i int) error {
		pe := l.pes[i]
		if r.parts[i].Len() > 0 && r.pes[i] != pe {
			// Mismatched placement: ship the right slot over.
			e.m.Send(r.pes[i], pe, r.parts[i].Size())
		}
		out, st, err := algebra.HashJoinBatch(l.parts[i], r.parts[i], j.LeftKeys, j.RightKeys)
		if err != nil {
			return err
		}
		cost := e.m.Cost()
		e.m.PE(pe).Advance(cost.HashCost(st.Hashes) + cost.BuildCost(st.TuplesEmitted))
		parts[i], err = e.finishJoinVec(j, out, pe, residual)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &vecParts{parts: parts, pes: append([]int(nil), l.pes...)}, nil
}

// execVecBroadcastJoin ships the small side — marked by the optimizer
// with an Exchange(broadcast) — to every partition of the big side and
// joins in place. The hash table is built once at the coordinator; only
// the small batch travels.
func (e *Engine) execVecBroadcastJoin(ctx *execCtx, j *plan.Join, smallNode, bigNode plan.Node, smallLeft bool, residual *expr.VecFilter) (*vecParts, error) {
	smallParts, err := e.execVecPart(ctx, smallNode)
	if err != nil {
		return nil, err
	}
	small := e.gatherVecBatch(ctx, smallParts, smallNode.Schema())
	big, err := e.execVecPart(ctx, bigNode)
	if err != nil {
		return nil, err
	}
	smallKeys, bigKeys := j.RightKeys, j.LeftKeys
	if smallLeft {
		smallKeys, bigKeys = j.LeftKeys, j.RightKeys
	}
	ht, bst, err := algebra.BuildBatchHashTable(small, smallKeys)
	if err != nil {
		vecFree(big)
		return nil, err
	}
	e.m.PE(ctx.s.pe).Advance(e.m.Cost().HashCost(bst.Hashes))
	// Stamp the broadcast sends sequentially (deterministic timing).
	smallBytes := small.Size()
	for _, pe := range big.pes {
		if pe != ctx.s.pe {
			e.m.Send(ctx.s.pe, pe, smallBytes)
		}
	}
	parts := make([]*value.Batch, len(big.parts))
	err = eachPart(len(big.parts), func(i int) error {
		// Output columns in tree order: small ++ big when small is left.
		out, st, err := ht.Probe(big.parts[i], bigKeys, smallLeft)
		if err != nil {
			return err
		}
		cost := e.m.Cost()
		e.m.PE(big.pes[i]).Advance(cost.HashCost(st.Hashes) + cost.BuildCost(st.TuplesEmitted))
		parts[i], err = e.finishJoinVec(j, out, big.pes[i], residual)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &vecParts{parts: parts, pes: append([]int(nil), big.pes...)}, nil
}

// finishJoinVec finishes one join partition on PE pe: restores the
// pre-swap column order (a pointer reorder), stamps the output schema,
// applies the residual kernel.
func (e *Engine) finishJoinVec(j *plan.Join, b *value.Batch, pe int, residual *expr.VecFilter) (*value.Batch, error) {
	if j.Swapped {
		if lw := j.Left.Schema().Len(); lw > 0 && lw < len(b.Cols) {
			cols := make([]*value.Vec, 0, len(b.Cols))
			cols = append(cols, b.Cols[lw:]...)
			cols = append(cols, b.Cols[:lw]...)
			b.Cols = cols
		}
	}
	b.Schema = j.Out
	if residual != nil {
		out, st, err := algebra.SelectBatch(b, residual)
		if err != nil {
			return nil, err
		}
		e.m.PE(pe).Advance(e.m.Cost().ScanCost(st.TuplesRead, true))
		out.Schema = j.Out
		b = out
	}
	return b, nil
}

// execVecAggregate runs two-phase distributed aggregation: every
// partition folds its columns into partial groups where it lives — in
// the same step as the fragment scan when the child is a bare table
// scan — and only the partials travel to the coordinator merge.
func (e *Engine) execVecAggregate(ctx *execCtx, a *plan.Aggregate) (*value.Relation, error) {
	partialSpecs := algebra.PartialSpecs(a.Specs)
	var partials []*value.Relation
	var pes []int
	partial := func(i, pe int, b *value.Batch) error {
		out, st, err := algebra.AggregateBatch(b, a.GroupBy, partialSpecs)
		if err != nil {
			return err
		}
		cost := e.m.Cost()
		e.m.PE(pe).Advance(cost.HashCost(st.Hashes) + cost.BuildCost(st.TuplesEmitted))
		partials[i] = out
		return nil
	}
	var err error
	if sc, ok := a.Child.(*plan.Scan); ok && !sc.Shared {
		pes, err = e.scanFragments(ctx, sc, func(n int) { partials = make([]*value.Relation, n) }, partial)
	} else {
		var vp *vecParts
		if vp, err = e.execVecPart(ctx, a.Child); err != nil {
			return nil, err
		}
		pes = vp.pes
		partials = make([]*value.Relation, len(vp.parts))
		err = eachPart(len(vp.parts), func(i int) error { return partial(i, vp.pes[i], vp.parts[i]) })
	}
	if err != nil {
		return nil, err
	}
	e.shipToCoordinator(ctx, partials, pes)
	out, st, err := algebra.MergeAggregates(partials, len(a.GroupBy), a.Specs)
	if err != nil {
		return nil, err
	}
	if err := ctx.chargeRel(out); err != nil {
		return nil, err
	}
	cost := e.m.Cost()
	e.m.PE(ctx.s.pe).Advance(cost.HashCost(st.TuplesRead) + cost.BuildCost(st.TuplesEmitted))
	out.Schema = a.Out
	return out, nil
}

// execVecSort sorts each partition where it lives and k-way-merges the
// sorted runs at the coordinator — the merge costs O(N log k) there
// instead of a full O(N log N) central sort.
func (e *Engine) execVecSort(ctx *execCtx, t *plan.Sort) (*value.Relation, error) {
	vp, err := e.execVecPart(ctx, t.Child)
	if err != nil {
		return nil, err
	}
	runs := make([]*value.Relation, len(vp.parts))
	err = eachPart(len(vp.parts), func(i int) error {
		rel := vp.parts[i].Materialize()
		vecFreeBatch(vp.parts[i])
		run, st, err := algebra.Sort(rel, t.Cols, t.Desc)
		if err != nil {
			return err
		}
		e.m.PE(vp.pes[i]).Advance(e.m.Cost().CompareCost(st.Compares))
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.shipToCoordinator(ctx, runs, vp.pes)
	out, st, err := algebra.MergeSortedRuns(runs, t.Cols, t.Desc)
	if err != nil {
		return nil, err
	}
	if err := ctx.chargeRel(out); err != nil {
		return nil, err
	}
	e.m.PE(ctx.s.pe).Advance(e.m.Cost().CompareCost(st.Compares))
	return out, nil
}

// execVecDistinct dedups each partition in place before the
// coordinator's final merge dedup, so duplicate-heavy inputs shrink
// before they travel.
func (e *Engine) execVecDistinct(ctx *execCtx, t *plan.Distinct) (*value.Relation, error) {
	vp, err := e.execVecPart(ctx, t.Child)
	if err != nil {
		return nil, err
	}
	deduped := make([]*value.Relation, len(vp.parts))
	err = eachPart(len(vp.parts), func(i int) error {
		rel := vp.parts[i].Materialize()
		vecFreeBatch(vp.parts[i])
		out, st := algebra.Distinct(rel)
		e.m.PE(vp.pes[i]).Advance(e.m.Cost().HashCost(st.Hashes))
		deduped[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.shipToCoordinator(ctx, deduped, vp.pes)
	merged := value.NewRelation(t.Child.Schema())
	for _, p := range deduped {
		merged.Tuples = append(merged.Tuples, p.Tuples...)
	}
	// A breach is sticky: breach() in execPlan surfaces it.
	_ = ctx.chargeRel(merged)
	out, st := algebra.Distinct(merged)
	e.m.PE(ctx.s.pe).Advance(e.m.Cost().HashCost(st.Hashes))
	return out, nil
}

// shipToCoordinator charges the network for moving every non-empty
// remote per-partition result to the coordinator.
func (e *Engine) shipToCoordinator(ctx *execCtx, rels []*value.Relation, pes []int) {
	for i, r := range rels {
		if r.Len() > 0 && pes[i] != ctx.s.pe {
			e.m.Send(pes[i], ctx.s.pe, r.Size())
		}
	}
}

// gatherVec materializes a partitioned intermediate at the coordinator —
// the single tuple-construction point of a batched plan.
func (e *Engine) gatherVec(ctx *execCtx, vp *vecParts, schema *value.Schema) *value.Relation {
	out := value.NewRelation(schema)
	total := 0
	for _, b := range vp.parts {
		total += b.Len()
	}
	out.Tuples = make([]value.Tuple, 0, total)
	for i, b := range vp.parts {
		if b.Len() == 0 {
			vecFreeBatch(b)
			continue
		}
		if vp.pes[i] != ctx.s.pe {
			e.m.Send(vp.pes[i], ctx.s.pe, b.Size())
		}
		rel := b.Materialize()
		out.Tuples = append(out.Tuples, rel.Tuples...)
		vecFreeBatch(b)
	}
	// A breach is sticky: breach() in execPlan surfaces it.
	_ = ctx.chargeRel(out)
	return out
}

// gatherVecBatch gathers a partitioned intermediate into one batch at
// the coordinator without materializing tuples.
func (e *Engine) gatherVecBatch(ctx *execCtx, vp *vecParts, schema *value.Schema) *value.Batch {
	for i, b := range vp.parts {
		if b.Len() > 0 && vp.pes[i] != ctx.s.pe {
			e.m.Send(vp.pes[i], ctx.s.pe, b.Size())
		}
	}
	out := value.ConcatBatches(schema, vp.parts)
	if ctx.mem != nil {
		// A breach is sticky: breach() in execPlan surfaces it.
		_ = ctx.mem.charge(int64(out.Size()))
	}
	return out
}

// vecFree returns every selection vector of a dropped intermediate to
// the pool.
func vecFree(vp *vecParts) {
	for _, b := range vp.parts {
		vecFreeBatch(b)
	}
}

func vecFreeBatch(b *value.Batch) {
	if b != nil && b.Sel != nil {
		value.PutSel(b.Sel)
		b.Sel = nil
	}
}
