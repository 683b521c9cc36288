package core

import (
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/ofm"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/txn"
	"repro/internal/value"
)

// execCtx carries per-query state: the session (locks, coordinator PE),
// the read view, and the common-subexpression cache the optimizer's CSE
// rule feeds. Under MVCC tx is nil for reads — the view alone selects
// the visible versions and no locks are taken.
type execCtx struct {
	s      *Session
	tx     *txn.Txn
	view   ofm.View
	shared map[string]*value.Relation
	mu     sync.Mutex
	// mem charges materialized intermediates (scans, join outputs,
	// aggregates, sorts) against the tenant's working-memory budget;
	// nil when the session has no budget.
	mem *memAcct
}

func (ctx *execCtx) cacheGet(key string) (*value.Relation, bool) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	r, ok := ctx.shared[key]
	return r, ok
}

func (ctx *execCtx) cachePut(key string, r *value.Relation) {
	ctx.mu.Lock()
	ctx.shared[key] = r
	ctx.mu.Unlock()
}

// execPlan runs an optimized plan under the given transaction and view.
func (e *Engine) execPlan(s *Session, tx *txn.Txn, view ofm.View, root plan.Node) (*value.Relation, error) {
	ctx := &execCtx{s: s, tx: tx, view: view, shared: map[string]*value.Relation{}}
	if s.memBudget > 0 {
		ctx.mem = &memAcct{limit: s.memBudget}
	}
	rel, err := e.exec(ctx, root)
	if err != nil {
		return nil, err
	}
	// Gathers charge the budget but cannot error there; the breach is
	// sticky, and a breach anywhere aborts the statement here at the
	// latest.
	if err := ctx.mem.breach(); err != nil {
		return nil, err
	}
	return rel, nil
}

// exec runs one plan node. With batch execution on, every partitioned
// node goes to the batch dataflow (execvec.go); the switch below is the
// central row executor, which runs each node at the coordinator.
func (e *Engine) exec(ctx *execCtx, n plan.Node) (*value.Relation, error) {
	if e.batched(n) {
		return e.execBatch(ctx, n)
	}
	switch t := n.(type) {
	case *plan.Scan:
		return e.execScan(ctx, t)
	case *plan.IndexProbe:
		return e.execIndexProbe(ctx, t)
	case *plan.Select:
		return e.execSelect(ctx, t)
	case *plan.Project:
		return e.execProject(ctx, t)
	case *plan.Join:
		return e.execCentralJoin(ctx, t)
	case *plan.Exchange:
		// The central executor has one partition, so exchanges have
		// nothing to move.
		return e.exec(ctx, t.Child)
	case *plan.Aggregate:
		return e.execAggregate(ctx, t)
	case *plan.Sort:
		rel, err := e.exec(ctx, t.Child)
		if err != nil {
			return nil, err
		}
		out, st, err := algebra.Sort(rel, t.Cols, t.Desc)
		if err != nil {
			return nil, err
		}
		if err := ctx.chargeRel(out); err != nil {
			return nil, err
		}
		e.m.PE(ctx.s.pe).Advance(e.m.Cost().CompareCost(st.Compares))
		return out, nil
	case *plan.Distinct:
		rel, err := e.exec(ctx, t.Child)
		if err != nil {
			return nil, err
		}
		out, st := algebra.Distinct(rel)
		if err := ctx.chargeRel(out); err != nil {
			return nil, err
		}
		e.m.PE(ctx.s.pe).Advance(e.m.Cost().HashCost(st.Hashes))
		return out, nil
	case *plan.Limit:
		rel, err := e.exec(ctx, t.Child)
		if err != nil {
			return nil, err
		}
		out, _ := algebra.Limit(rel, t.N)
		return out, nil
	}
	return nil, fmt.Errorf("core: unknown plan node %T", n)
}

// lockFragments S-locks the listed fragments of a table for the query.
// Under MVCC it is a no-op: snapshot reads are resolved purely by the
// view's timestamp, so readers never touch the lock manager and never
// block (or are blocked by) writers.
func (e *Engine) lockFragments(ctx *execCtx, t *table, frags []int) error {
	if e.mvcc {
		return nil
	}
	for _, fi := range frags {
		if err := ctx.tx.Lock(t.frags[fi].ofm.Name(), txn.Shared); err != nil {
			return err
		}
	}
	return nil
}

// execScan runs a (possibly filtered) parallel scan over a table's
// fragments, pruning fragments by the predicate where the fragmentation
// scheme allows. Shared scans hit the CSE cache.
func (e *Engine) execScan(ctx *execCtx, sc *plan.Scan) (*value.Relation, error) {
	key := ""
	if sc.Shared {
		key = sc.Table + "|"
		if sc.Pred != nil {
			key += sc.Pred.String()
		}
		if rel, ok := ctx.cacheGet(key); ok {
			out := value.NewRelation(sc.Out)
			out.Tuples = rel.Tuples
			return out, nil
		}
	}
	t, err := e.lookupTable(sc.Table)
	if err != nil {
		return nil, err
	}
	frags := e.pruneFragments(t, sc.Pred)
	if err := e.lockFragments(ctx, t, frags); err != nil {
		return nil, err
	}
	parts, err := e.parallelScan(ctx, t, frags, sc.Pred)
	if err != nil {
		return nil, err
	}
	out := value.NewRelation(sc.Out)
	for _, p := range parts {
		out.Tuples = append(out.Tuples, p.Tuples...)
	}
	if err := ctx.chargeRel(out); err != nil {
		return nil, err
	}
	if sc.Shared {
		ctx.cachePut(key, out)
	}
	return out, nil
}

// execIndexProbe runs the point-query fast path: resolve the key, route
// straight to the fragment(s) the fragmentation scheme allows, and let
// each OFM answer with a direct hash-index lookup — no scan, no
// predicate compilation, no full-relation materialization. Like the
// colocated join, the probe calls the OFM directly under the fragment's
// shared lock and charges the simulated network for the request and
// reply, skipping the process-message round trip.
func (e *Engine) execIndexProbe(ctx *execCtx, pr *plan.IndexProbe) (*value.Relation, error) {
	t, key, frags, err := e.probeTargets(ctx, pr)
	if err != nil {
		return nil, err
	}
	out := value.NewRelation(pr.Out)
	for _, fi := range frags {
		rel, err := e.probeFragment(ctx, t.frags[fi], pr, key)
		if err != nil {
			return nil, err
		}
		if out.Tuples == nil {
			out.Tuples = rel.Tuples
		} else {
			out.Tuples = append(out.Tuples, rel.Tuples...)
		}
	}
	return out, nil
}

// probeTargets resolves an IndexProbe's key value and target fragment
// set (an equality on the fragmentation key pins a single fragment)
// and S-locks the fragments. Shared by the materialized and streaming
// executors so routing and locking can never skew between them.
func (e *Engine) probeTargets(ctx *execCtx, pr *plan.IndexProbe) (*table, value.Value, []int, error) {
	kc, ok := pr.Key.(*expr.Const)
	if !ok {
		return nil, value.Null, nil, fmt.Errorf("core: index probe key %s not bound", pr.Key)
	}
	t, err := e.lookupTable(pr.Table)
	if err != nil {
		return nil, value.Null, nil, err
	}
	var frags []int
	sc := t.def.Scheme
	if (sc.Strategy == fragment.Hash || sc.Strategy == fragment.Range) && sc.Column == pr.Col {
		frags = sc.FragmentsForEq(kc.V)
	}
	if frags == nil {
		frags = make([]int, len(t.frags))
		for i := range frags {
			frags[i] = i
		}
	}
	if err := e.lockFragments(ctx, t, frags); err != nil {
		return nil, value.Null, nil, err
	}
	return t, kc.V, frags, nil
}

// probeFragment probes one fragment's hash index, charging the
// simulated network for the request and the reply.
func (e *Engine) probeFragment(ctx *execCtx, f *fragRef, pr *plan.IndexProbe, key value.Value) (*value.Relation, error) {
	if f.pe != ctx.s.pe {
		e.m.Send(ctx.s.pe, f.pe, 64) // the probe request
	}
	rel, err := f.ofm.ProbeEq(ctx.view, pr.Col, key, pr.Rest)
	if err != nil {
		return nil, err
	}
	if f.pe != ctx.s.pe {
		e.m.Send(f.pe, ctx.s.pe, rel.Size()) // only the result travels
	}
	return rel, nil
}

// parallelScan issues scan calls to fragment processes as one batched
// fan-out (deterministic virtual timing) and returns the per-fragment
// results in fragment order.
func (e *Engine) parallelScan(ctx *execCtx, t *table, frags []int, pred expr.Expr) ([]*value.Relation, error) {
	specs := make([]pool.CallSpec, len(frags))
	for i, fi := range frags {
		specs[i] = pool.CallSpec{To: t.frags[fi].proc, Kind: "scan", Body: scanReq{view: ctx.view, pred: pred}, Bytes: 128}
	}
	results, errs := e.rt.CallAll(ctx.s.pe, specs)
	out := make([]*value.Relation, len(frags))
	for i := range frags {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[i] = results[i].(*value.Relation)
	}
	return out, nil
}

// execSelect filters at the coordinator (predicates that survived
// pushdown: cross-table conditions, HAVING).
func (e *Engine) execSelect(ctx *execCtx, s *plan.Select) (*value.Relation, error) {
	rel, err := e.exec(ctx, s.Child)
	if err != nil {
		return nil, err
	}
	pred, err := expr.CompilePredicate(expr.Clone(s.Pred), rel.Schema)
	if err != nil {
		return nil, err
	}
	out, st, err := algebra.Select(rel, pred)
	if err != nil {
		return nil, err
	}
	e.m.PE(ctx.s.pe).Advance(e.m.Cost().ScanCost(st.TuplesRead, true))
	return out, nil
}

func (e *Engine) execProject(ctx *execCtx, p *plan.Project) (*value.Relation, error) {
	rel, err := e.exec(ctx, p.Child)
	if err != nil {
		return nil, err
	}
	exprs := make([]expr.Expr, len(p.Exprs))
	for i, ex := range p.Exprs {
		exprs[i] = expr.Clone(ex)
	}
	proj, err := expr.CompileProjector(exprs, p.Names, rel.Schema)
	if err != nil {
		return nil, err
	}
	out, st, err := algebra.ProjectExprs(rel, proj)
	if err != nil {
		return nil, err
	}
	out.Schema = p.Out
	e.m.PE(ctx.s.pe).Advance(e.m.Cost().BuildCost(st.TuplesEmitted))
	return out, nil
}

// execCentralJoin collects both inputs at the coordinator and hash-joins
// there — the no-parallelism baseline — then restores the pre-swap
// column order, stamps the output schema and applies the residual.
func (e *Engine) execCentralJoin(ctx *execCtx, j *plan.Join) (*value.Relation, error) {
	l, err := e.exec(ctx, j.Left)
	if err != nil {
		return nil, err
	}
	r, err := e.exec(ctx, j.Right)
	if err != nil {
		return nil, err
	}
	out, st, err := algebra.HashJoin(l, r, j.LeftKeys, j.RightKeys)
	if err != nil {
		return nil, err
	}
	if err := ctx.chargeRel(out); err != nil {
		return nil, err
	}
	cost := e.m.Cost()
	e.m.PE(ctx.s.pe).Advance(cost.HashCost(st.Hashes) + cost.BuildCost(st.TuplesEmitted))
	if j.Swapped {
		restoreSwapped(out.Tuples, j.Left.Schema().Len())
	}
	out.Schema = j.Out
	if j.Residual == nil {
		return out, nil
	}
	pred, err := expr.CompilePredicate(expr.Clone(j.Residual), j.Out)
	if err != nil {
		return nil, err
	}
	filtered, st, err := algebra.Select(out, pred)
	if err != nil {
		return nil, err
	}
	e.m.PE(ctx.s.pe).Advance(e.m.Cost().ScanCost(st.TuplesRead, true))
	filtered.Schema = j.Out
	return filtered, nil
}

// restoreSwapped rotates each tuple left by lw in place, undoing the
// optimizer's build-side swap: tuple t[:lw] ++ t[lw:] becomes
// t[lw:] ++ t[:lw]. One scratch buffer is reused across the whole
// relation instead of allocating a fresh tuple per row. Safe only
// because join outputs are always freshly concatenated tuples — never
// aliases of fragment storage or the CSE scan cache.
func restoreSwapped(tuples []value.Tuple, lw int) {
	if lw == 0 || len(tuples) == 0 || lw >= len(tuples[0]) {
		return
	}
	scratch := make(value.Tuple, lw)
	for _, t := range tuples {
		copy(scratch, t[:lw])
		copy(t, t[lw:])
		copy(t[len(t)-lw:], scratch)
	}
}

// execAggregate aggregates at the coordinator. A pushdown aggregate
// over a bare table scan first lets every OFM pre-aggregate its own
// fragment in its process, so only the partials travel.
func (e *Engine) execAggregate(ctx *execCtx, a *plan.Aggregate) (*value.Relation, error) {
	if sc, ok := a.Child.(*plan.Scan); ok && a.Pushdown {
		return e.execPushdownAggregate(ctx, a, sc)
	}
	rel, err := e.exec(ctx, a.Child)
	if err != nil {
		return nil, err
	}
	out, st, err := algebra.Aggregate(rel, a.GroupBy, a.Specs)
	if err != nil {
		return nil, err
	}
	if err := ctx.chargeRel(out); err != nil {
		return nil, err
	}
	cost := e.m.Cost()
	e.m.PE(ctx.s.pe).Advance(cost.HashCost(st.Hashes) + cost.BuildCost(st.TuplesEmitted))
	out.Schema = a.Out
	return out, nil
}

func (e *Engine) execPushdownAggregate(ctx *execCtx, a *plan.Aggregate, sc *plan.Scan) (*value.Relation, error) {
	t, err := e.lookupTable(sc.Table)
	if err != nil {
		return nil, err
	}
	frags := e.pruneFragments(t, sc.Pred)
	if err := e.lockFragments(ctx, t, frags); err != nil {
		return nil, err
	}
	partialSpecs := algebra.PartialSpecs(a.Specs)
	specs := make([]pool.CallSpec, len(frags))
	for i, fi := range frags {
		specs[i] = pool.CallSpec{To: t.frags[fi].proc, Kind: "aggregate",
			Body: aggReq{view: ctx.view, pred: sc.Pred, groupBy: a.GroupBy, specs: partialSpecs}, Bytes: 192}
	}
	results, errs := e.rt.CallAll(ctx.s.pe, specs)
	partials := make([]*value.Relation, len(frags))
	for i := range frags {
		if errs[i] != nil {
			return nil, errs[i]
		}
		partials[i] = results[i].(*value.Relation)
	}
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
