package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// Cursor drains one SELECT's result incrementally, a batch of tuples at
// a time, instead of materializing the whole relation at the
// coordinator. Batches arrive fragment-at-a-time for plans whose root
// pipeline reaches a Scan or IndexProbe (with coordinator-side Select /
// Project / Limit applied per batch); other roots (joins, aggregates,
// sorts) materialize once and stream as a single batch.
//
// Under MVCC the cursor reads a snapshot pinned when it opened: the
// stream observes one consistent version of the database for its whole
// lifetime, no locks are held, and concurrent writers are never blocked
// by (nor block) the stream. The snapshot pin — which only holds back
// version garbage collection — is released when the cursor is exhausted
// or closed.
//
// Under the 2PL baseline, locks are taken in full before the cursor is
// returned (strict 2PL is preserved: nothing is acquired mid-stream).
// For an autocommit statement the transaction — and with it the
// fragment S-locks — stays open until the cursor is exhausted or
// closed: Next returning (nil, nil) commits it, Close before exhaustion
// aborts it. Inside an explicit transaction the cursor leaves the
// transaction untouched and locks live until COMMIT/ROLLBACK, exactly
// as for a materialized statement.
//
// A Cursor is not safe for concurrent use, mirroring the Session that
// produced it.
type Cursor struct {
	s         *Session
	settle    func(error) error // from readView: settles txn / releases pin
	schema    *value.Schema
	planStr   string
	iter      *relIter
	done      bool
	err       error
	rows      int64
	simStart  time.Duration
	wallStart time.Time
	simTime   time.Duration
	wallTime  time.Duration
}

// Schema returns the result schema (known before the first tuple).
func (c *Cursor) Schema() *value.Schema { return c.schema }

// Plan returns the optimized logical plan being streamed.
func (c *Cursor) Plan() string { return c.planStr }

// Rows returns the number of tuples delivered so far.
func (c *Cursor) Rows() int64 { return c.rows }

// SimTime returns the simulated execution time; valid once the cursor
// has finished (Next returned nil or Close was called).
func (c *Cursor) SimTime() time.Duration { return c.simTime }

// WallTime returns the real execution time; valid once the cursor has
// finished.
func (c *Cursor) WallTime() time.Duration { return c.wallTime }

// Next returns the next non-empty batch of the result, or (nil, nil)
// once the stream is exhausted (at which point an autocommit
// transaction has committed and its locks are released). Any error —
// including a commit failure at end of stream — poisons the cursor.
func (c *Cursor) Next() (*value.Relation, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.done {
		return nil, nil
	}
	rel, err := c.iter.next()
	if err != nil {
		c.err = err
		c.finish(false)
		return nil, err
	}
	if rel == nil {
		if err := c.finish(true); err != nil {
			c.err = err
			return nil, err
		}
		return nil, nil
	}
	c.rows += int64(len(rel.Tuples))
	return rel, nil
}

// Close releases the cursor. Closing before exhaustion aborts an
// autocommit transaction (releasing its locks); closing after Next
// returned (nil, nil) is a no-op. Close is idempotent.
func (c *Cursor) Close() error {
	if !c.done {
		c.finish(false)
	}
	return nil
}

// errCursorClosed marks a cursor abandoned before exhaustion, routing
// settle down its abort/release path.
var errCursorClosed = errors.New("core: cursor closed before exhaustion")

// finish ends the stream exactly once: waits out any in-flight fragment
// calls, settles the read (autocommit commit/abort under 2PL, snapshot
// pin release under MVCC), and stamps the timings.
func (c *Cursor) finish(commit bool) error {
	if c.done {
		return nil
	}
	c.done = true
	c.s.unregisterCursor(c)
	c.iter.wait()
	var err error
	if commit {
		err = c.settle(nil)
	} else {
		c.settle(errCursorClosed) // abort path; the sentinel is discarded
	}
	c.simTime = c.s.e.m.MaxClock() - c.simStart
	c.wallTime = time.Since(c.wallStart)
	return err
}

// Stream executes one SQL statement, returning a Cursor when the
// statement produces a relation and a materialized Result otherwise
// (DDL, DML and transaction control behave exactly as Exec). Exactly
// one of the two returns is non-nil on success.
//
// Like Exec, Stream goes through the engine's plan cache: a hot
// statement shape skips parsing and optimization and streams its cached
// plan with the literals bound, so streaming costs no per-statement
// compilation over the materialized path.
func (s *Session) Stream(sql string) (*Cursor, *Result, error) {
	pc := s.e.plans
	if pc == nil {
		return s.parseStream(sql)
	}
	key, lits, ok := sqlparse.Normalize(sql)
	if !ok {
		return s.parseStream(sql)
	}
	if ps, hit := pc.get(key); hit {
		if ps == nil {
			// Statement shape known non-cacheable.
			return s.parseStream(sql)
		}
		return s.streamAuto(ps, lits, sql)
	}
	cs, vals, err := s.e.compileAutoFrom(sql, lits)
	if err == errNotCacheable {
		pc.put(key, nil)
		return s.parseStream(sql)
	}
	if err != nil {
		return nil, nil, err
	}
	ps := newPreparedStmt(s.e, sql, true, cs)
	pc.put(key, ps)
	return s.streamAuto(ps, vals, sql)
}

// streamAuto streams a plan-cached statement with its lifted literals,
// falling back to the uncached path on a parameter-kind mismatch (the
// same discipline as execAuto: caching must never change an outcome).
func (s *Session) streamAuto(ps *PreparedStmt, lits []value.Value, sql string) (*Cursor, *Result, error) {
	cur, res, err := s.streamPrepared(ps, lits)
	if err != nil && errors.Is(err, errBindKind) {
		return s.parseStream(sql)
	}
	return cur, res, err
}

// streamPrepared opens a cursor over one compiled statement execution.
func (s *Session) streamPrepared(ps *PreparedStmt, args []value.Value) (*Cursor, *Result, error) {
	cs, err := ps.current()
	if err != nil {
		return nil, nil, err
	}
	if len(args) != cs.nParams {
		return nil, nil, fmt.Errorf("core: statement wants %d parameters, got %d", cs.nParams, len(args))
	}
	bound, err := coerceArgs(args, cs.kinds, ps.auto)
	if err != nil {
		return nil, nil, err
	}
	if cs.sel != nil {
		if err := s.checkAccess(cs.access); err != nil {
			return nil, nil, err
		}
		root := cs.sel
		if cs.nParams > 0 {
			if root, err = bindPlan(root, bound); err != nil {
				return nil, nil, err
			}
		}
		cur, err := s.streamPlanStr(root, cs.planStr)
		if err != nil {
			return nil, nil, err
		}
		return cur, nil, nil
	}
	st := cs.ast
	if cs.nParams > 0 {
		if st, err = substStmt(st, bound); err != nil {
			return nil, nil, err
		}
	}
	res, err := s.execStmtTimed(st)
	return nil, res, err
}

// parseStream is the uncached streaming path: parse, and either open a
// cursor (SELECT) or execute materialized (everything else).
func (s *Session) parseStream(sql string) (*Cursor, *Result, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		res, err := s.execStmtTimed(st)
		return nil, res, err
	}
	if err := s.checkStmt(sel); err != nil {
		return nil, nil, err
	}
	root, err := s.e.translateSelect(sel)
	if err != nil {
		return nil, nil, err
	}
	root = s.e.opt.Optimize(root)
	cur, err := s.streamPlanStr(root, plan.Format(root))
	if err != nil {
		return nil, nil, err
	}
	return cur, nil, nil
}

// execStmtTimed runs one parsed statement with Exec's timing envelope.
func (s *Session) execStmtTimed(st sqlparse.Stmt) (*Result, error) {
	wallStart := time.Now()
	simStart := s.e.m.MaxClock()
	res, err := s.execStmt(st)
	if err != nil {
		return nil, err
	}
	res.WallTime = time.Since(wallStart)
	res.SimTime = s.e.m.MaxClock() - simStart
	return res, nil
}

// streamPlanStr opens a cursor over an optimized plan (with its
// pre-rendered format string) under the session's transaction
// discipline. All locks are acquired here, before the cursor is handed
// back.
func (s *Session) streamPlanStr(root plan.Node, planStr string) (*Cursor, error) {
	wallStart := time.Now()
	simStart := s.e.m.MaxClock()
	tx, view, settle, err := s.readView()
	if err != nil {
		return nil, err
	}
	ctx := &execCtx{s: s, tx: tx, view: view, shared: map[string]*value.Relation{}}
	if s.memBudget > 0 {
		ctx.mem = &memAcct{limit: s.memBudget}
	}
	iter, err := s.e.execStream(ctx, root)
	if err != nil {
		return nil, settle(err)
	}
	cur := &Cursor{
		s:         s,
		settle:    settle,
		schema:    root.Schema(),
		planStr:   planStr,
		iter:      iter,
		simStart:  simStart,
		wallStart: wallStart,
	}
	s.registerCursor(cur)
	return cur, nil
}

// relIter yields a result as a sequence of non-empty per-fragment (or
// materialized) relations; next returns (nil, nil) when exhausted. wait
// blocks until any in-flight fragment calls have drained, so an
// abandoned iterator never leaks work past cursor close.
type relIter struct {
	next func() (*value.Relation, error)
	wait func()
}

func noWait() {}

// singleBatchIter streams an already-materialized relation as one batch.
func singleBatchIter(rel *value.Relation) *relIter {
	done := false
	return &relIter{
		next: func() (*value.Relation, error) {
			if done || rel == nil || len(rel.Tuples) == 0 {
				return nil, nil
			}
			done = true
			return rel, nil
		},
		wait: noWait,
	}
}

// execStream builds a streaming iterator for a plan. Roots the pipeline
// understands (Scan, IndexProbe, and Select/Project/Limit above them)
// deliver results fragment-at-a-time; every other shape falls back to
// the materializing executor and streams as a single batch.
func (e *Engine) execStream(ctx *execCtx, n plan.Node) (*relIter, error) {
	switch t := n.(type) {
	case *plan.Scan:
		if t.Shared {
			break // CSE-shared scans keep their materialized cache semantics
		}
		return e.streamScan(ctx, t)
	case *plan.IndexProbe:
		return e.streamIndexProbe(ctx, t)
	case *plan.Select:
		child, err := e.execStream(ctx, t.Child)
		if err != nil {
			return nil, err
		}
		return e.streamSelect(ctx, t, child)
	case *plan.Project:
		child, err := e.execStream(ctx, t.Child)
		if err != nil {
			return nil, err
		}
		return e.streamProject(ctx, t, child)
	case *plan.Limit:
		child, err := e.execStream(ctx, t.Child)
		if err != nil {
			return nil, err
		}
		return streamLimit(t.N, child), nil
	}
	rel, err := e.exec(ctx, n)
	if err != nil {
		return nil, err
	}
	// The fallback materialized n whole: a budget breach anywhere in it
	// aborts the stream, as it aborts execPlan.
	if err := ctx.mem.breach(); err != nil {
		return nil, err
	}
	return singleBatchIter(rel), nil
}

// streamScan locks the (pruned) fragments up front, then fans the scan
// calls out to every fragment process at once (departures stamped
// deterministically, as in the materialized parallelScan); batches are
// delivered in fragment order as each reply lands, so the first
// fragment's tuples reach the consumer while later fragments are still
// scanning.
func (e *Engine) streamScan(ctx *execCtx, sc *plan.Scan) (*relIter, error) {
	t, err := e.lookupTable(sc.Table)
	if err != nil {
		return nil, err
	}
	frags := e.pruneFragments(t, sc.Pred)
	if err := e.lockFragments(ctx, t, frags); err != nil {
		return nil, err
	}
	if e.vectorized {
		return e.streamScanVec(ctx, t, frags, sc), nil
	}
	specs := make([]pool.CallSpec, len(frags))
	for i, fi := range frags {
		specs[i] = pool.CallSpec{To: t.frags[fi].proc, Kind: "scan", Body: scanReq{view: ctx.view, pred: sc.Pred}, Bytes: 128}
	}
	waits := e.rt.CallEach(ctx.s.pe, specs)
	i := 0
	next := func() (*value.Relation, error) {
		for i < len(waits) {
			res, err := waits[i]()
			i++
			if err != nil {
				return nil, err
			}
			rel := res.(*value.Relation)
			if len(rel.Tuples) == 0 {
				continue
			}
			out := value.NewRelation(sc.Out)
			out.Tuples = rel.Tuples
			return out, nil
		}
		return nil, nil
	}
	wait := func() {
		for ; i < len(waits); i++ {
			waits[i]()
		}
	}
	return &relIter{next: next, wait: wait}, nil
}

// streamScanVec delivers a leaf scan fragment-at-a-time through
// OFM.ScanBatch: each fragment filters where it lives and only the
// qualifying rows materialize into the delivered batch, lazily as the
// consumer asks.
func (e *Engine) streamScanVec(ctx *execCtx, t *table, frags []int, sc *plan.Scan) *relIter {
	i := 0
	next := func() (*value.Relation, error) {
		for i < len(frags) {
			f := t.frags[frags[i]]
			i++
			b, _, err := f.ofm.ScanBatch(ctx.view, sc.Pred, nil)
			if err != nil {
				return nil, err
			}
			if b.Len() == 0 {
				vecFreeBatch(b)
				continue
			}
			if f.pe != ctx.s.pe {
				e.m.Send(f.pe, ctx.s.pe, b.Size())
			}
			out := value.NewRelation(sc.Out)
			out.Tuples = b.Materialize().Tuples
			vecFreeBatch(b)
			return out, nil
		}
		return nil, nil
	}
	return &relIter{next: next, wait: noWait}
}

// streamIndexProbe yields the point-query fast path fragment-at-a-time:
// probes are cheap and (for a fragmentation-key equality) pinned to a
// single fragment, so each one runs lazily when the consumer asks. The
// routing, locking and probe logic is exactly execIndexProbe's, via
// the shared probeTargets/probeFragment helpers.
func (e *Engine) streamIndexProbe(ctx *execCtx, pr *plan.IndexProbe) (*relIter, error) {
	t, key, frags, err := e.probeTargets(ctx, pr)
	if err != nil {
		return nil, err
	}
	i := 0
	next := func() (*value.Relation, error) {
		for i < len(frags) {
			f := t.frags[frags[i]]
			i++
			rel, err := e.probeFragment(ctx, f, pr, key)
			if err != nil {
				return nil, err
			}
			if len(rel.Tuples) == 0 {
				continue
			}
			out := value.NewRelation(pr.Out)
			out.Tuples = rel.Tuples
			return out, nil
		}
		return nil, nil
	}
	return &relIter{next: next, wait: noWait}, nil
}

// streamSelect applies a coordinator-side residual filter to each batch,
// compiling the predicate once for the whole stream.
func (e *Engine) streamSelect(ctx *execCtx, sl *plan.Select, child *relIter) (*relIter, error) {
	pred, err := expr.CompilePredicate(expr.Clone(sl.Pred), sl.Child.Schema())
	if err != nil {
		child.wait()
		return nil, err
	}
	next := func() (*value.Relation, error) {
		for {
			rel, err := child.next()
			if err != nil || rel == nil {
				return nil, err
			}
			out, st, err := algebra.Select(rel, pred)
			if err != nil {
				return nil, err
			}
			e.m.PE(ctx.s.pe).Advance(e.m.Cost().ScanCost(st.TuplesRead, true))
			if len(out.Tuples) == 0 {
				continue
			}
			return out, nil
		}
	}
	return &relIter{next: next, wait: child.wait}, nil
}

// streamProject computes output expressions per batch, compiling the
// projector once for the whole stream.
func (e *Engine) streamProject(ctx *execCtx, p *plan.Project, child *relIter) (*relIter, error) {
	exprs := make([]expr.Expr, len(p.Exprs))
	for i, ex := range p.Exprs {
		exprs[i] = expr.Clone(ex)
	}
	proj, err := expr.CompileProjector(exprs, p.Names, p.Child.Schema())
	if err != nil {
		child.wait()
		return nil, err
	}
	next := func() (*value.Relation, error) {
		for {
			rel, err := child.next()
			if err != nil || rel == nil {
				return nil, err
			}
			out, st, err := algebra.ProjectExprs(rel, proj)
			if err != nil {
				return nil, err
			}
			out.Schema = p.Out
			e.m.PE(ctx.s.pe).Advance(e.m.Cost().BuildCost(st.TuplesEmitted))
			if len(out.Tuples) == 0 {
				continue
			}
			return out, nil
		}
	}
	return &relIter{next: next, wait: child.wait}, nil
}

// streamLimit truncates the stream after n tuples, without draining the
// remainder of the child.
func streamLimit(n int, child *relIter) *relIter {
	remaining := n
	next := func() (*value.Relation, error) {
		if remaining <= 0 {
			return nil, nil
		}
		rel, err := child.next()
		if err != nil || rel == nil {
			return nil, err
		}
		if len(rel.Tuples) > remaining {
			out := value.NewRelation(rel.Schema)
			out.Tuples = rel.Tuples[:remaining]
			rel = out
		}
		remaining -= len(rel.Tuples)
		return rel, nil
	}
	return &relIter{next: next, wait: child.wait}
}
