package ofm

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/value"
)

// The fragment column cache: a lazily built columnar image of EVERY
// tuple version in the fragment's store (live and dead), keyed by the
// store's mutation counter. Because each cached row carries its MVCC
// begin/end timestamps, one cache serves any snapshot: a scan at
// timestamp TS derives its visibility as a selection vector over the
// cached columns, so repeated snapshot scans pay the tuple-to-column
// transposition once per fragment version instead of materializing
// tuple-at-a-time on every query. Any write (insert, delete, update,
// vacuum, clear) bumps the store version and the next batch scan
// rebuilds; Vacuum therefore also drops reclaimed versions from the
// cache on its next rebuild.

// colCache is one built cache generation.
type colCache struct {
	version uint64 // store mutation counter the cache was built at
	rows    int
	begin   []uint64 // per-row MVCC begin timestamps
	end     []uint64 // per-row MVCC end timestamps (0 = current)
	cols    []*value.Vec
	// allCurrent short-circuits visibility: every cached version has
	// begin == 0 and end == 0 (bulk-loaded data, never mutated), so any
	// snapshot sees all rows and scans run dense with Sel == nil.
	allCurrent bool
	bytes      int64 // footprint, charged to the statement's tenant budget
	charged    int64 // bytes charged to the PE: bytes, or 0 when the PE was full
}

// vecBytes approximates a column vector's footprint.
func vecBytes(v *value.Vec) int64 {
	var n int64
	switch v.Kind {
	case value.KindString:
		n = int64(len(v.S)) * 16
		for _, s := range v.S {
			n += int64(len(s))
		}
	case value.KindFloat:
		n = int64(len(v.F)) * 8
	default:
		n = int64(len(v.I)) * 8
	}
	if v.Null != nil {
		n += int64(len(v.Null))
	}
	return n
}

// columnCache returns the current cache generation, rebuilding it when
// the store has mutated since the last build. It returns the cache plus
// the bytes newly allocated by a rebuild this call (0 on a hit), so the
// executor can charge the statement's tenant budget for the build.
func (o *OFM) columnCache() (*colCache, int64, error) {
	o.ccMu.Lock()
	defer o.ccMu.Unlock()
	if o.cc != nil && o.cc.version == o.store.Version() {
		return o.cc, 0, nil
	}
	tuples, begin, end, ver := o.store.SnapshotVersions()
	batch := value.NewBatchFrom(o.cfg.Schema, tuples)
	if batch == nil {
		// Conform keeps every stored column to one kind, so this is a
		// broken invariant, not a shape to route around.
		return nil, 0, fmt.Errorf("ofm %s: fragment has a mixed-kind column", o.cfg.Name)
	}
	allCurrent := true
	for i := range begin {
		if begin[i] != 0 || end[i] != 0 {
			allCurrent = false
			break
		}
	}
	cc := &colCache{
		version:    ver,
		rows:       len(tuples),
		begin:      begin,
		end:        end,
		cols:       batch.Cols,
		allCurrent: allCurrent,
	}
	for _, vec := range cc.cols {
		cc.bytes += vecBytes(vec)
	}
	cc.bytes += int64(len(begin)+len(end)) * 8
	if o.cc != nil {
		o.cfg.PE.Free(o.cc.charged)
	}
	// A cache that does not fit the PE's memory still serves scans, but
	// it is left uncharged, so the next rebuild frees only what was
	// charged.
	if o.cfg.PE.Alloc(cc.bytes) == nil {
		cc.charged = cc.bytes
	}
	// The transposition reads every version once.
	o.cfg.PE.Advance(o.costs().BuildCost(cc.rows))
	o.cc = cc
	return cc, cc.bytes, nil
}

// compileVecFilter returns the cached vectorized filter for e, mirroring
// compilePred's cache-and-charge discipline.
func (o *OFM) compileVecFilter(e expr.Expr) (*expr.VecFilter, error) {
	key := e.String()
	o.vecMu.Lock()
	if f, ok := o.vecCache[key]; ok {
		o.vecMu.Unlock()
		return f, nil
	}
	o.vecMu.Unlock()
	f, err := expr.CompileVecFilter(expr.Clone(e), o.cfg.Schema)
	if err != nil {
		return nil, err
	}
	o.cfg.PE.Advance(o.costs().CompileCost())
	o.vecMu.Lock()
	o.vecCache[key] = f
	o.vecMu.Unlock()
	return f, nil
}

// ScanBatch is the columnar counterpart of Scan: it evaluates an
// optional predicate over the view and returns the matching rows as a
// batch. built reports the bytes a cache rebuild allocated during this
// call (0 on a hit).
//
// The common case reads the fragment column cache, with visibility
// expressed as a selection vector — no tuples are materialized. The
// cases the cache cannot answer are answered by the row Scan and
// transposed: a view whose transaction has pending writes here (the
// overlay is row oriented), an interpreted OFM (Compiled=false), and an
// equality predicate the hash index answers with a probe.
func (o *OFM) ScanBatch(view View, pred expr.Expr, cols []int) (batch *value.Batch, built int64, err error) {
	if o.rowSourced(view, pred) {
		rel, err := o.Scan(view, pred, cols)
		if err != nil {
			return nil, 0, err
		}
		if batch = value.NewBatchFrom(rel.Schema, rel.Tuples); batch == nil {
			return nil, 0, fmt.Errorf("ofm %s: scan result has a mixed-kind column", o.cfg.Name)
		}
		return batch, 0, nil
	}
	cc, built, err := o.columnCache()
	if err != nil {
		return nil, 0, err
	}
	cost := o.costs()

	var sel []int32
	if !cc.allCurrent {
		sel = value.GetSel()
		for i := 0; i < cc.rows; i++ {
			if cc.begin[i] <= view.TS && (cc.end[i] == 0 || cc.end[i] > view.TS) {
				sel = append(sel, int32(i))
			}
		}
		if len(sel) == cc.rows {
			value.PutSel(sel)
			sel = nil // every version visible: dense fast path
		}
	}
	batch = &value.Batch{Schema: o.cfg.Schema, Cols: cc.cols, Sel: sel, Rows: cc.rows}

	if pred == nil {
		o.cfg.PE.Advance(cost.BuildCost(batch.Len()))
	} else {
		f, ferr := o.compileVecFilter(pred)
		if ferr != nil {
			return nil, built, fmt.Errorf("ofm %s: %w", o.cfg.Name, ferr)
		}
		visible := batch.Len()
		out, _, serr := algebra.SelectBatch(batch, f)
		if serr != nil {
			return nil, built, fmt.Errorf("ofm %s: %w", o.cfg.Name, serr)
		}
		// Cost parity with the row path: the scan examined every visible
		// version with the compiled kernel.
		o.cfg.PE.Advance(cost.ScanCost(visible, true))
		batch = out
	}
	if cols != nil {
		batch = batch.Project(cols, o.cfg.Schema.Project(cols))
		o.cfg.PE.Advance(cost.BuildCost(batch.Len()))
	}
	return batch, built, nil
}

// rowSourced reports whether ScanBatch must answer from the row Scan.
func (o *OFM) rowSourced(view View, pred expr.Expr) bool {
	if !o.cfg.Compiled {
		return true
	}
	if del, ins := o.overlay(view); len(del) > 0 || len(ins) > 0 {
		return true
	}
	if pred != nil {
		if hash, _, _ := o.eqIndexProbe(pred); hash != nil {
			return true // a point probe beats any scan
		}
	}
	return false
}
