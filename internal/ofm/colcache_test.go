package ofm

import (
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/txn"
	"repro/internal/value"
)

// newMVCCOFM builds a transient compiled OFM with a controllable GC
// horizon, so commits stamp MVCC versions without the standalone eager
// vacuum reclaiming them out from under the snapshot tests.
func newMVCCOFM(t *testing.T, horizon *atomic.Uint64) (*OFM, *txn.Manager) {
	t.Helper()
	m, err := machine.New(machine.Config{NumPEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		Name:     "cc#0",
		Schema:   testSchema(),
		PE:       m.PE(0),
		Kind:     Transient,
		Compiled: true,
		Horizon:  func() uint64 { return horizon.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	return o, txn.NewManager()
}

// commitAt applies a buffered write set with an explicit commit
// timestamp, the way the engine's commit clock would.
func commitAt(t *testing.T, o *OFM, tx *txn.Txn, ts uint64) {
	t.Helper()
	if err := o.Prepare(tx.ID()); err != nil {
		t.Fatal(err)
	}
	if err := o.Commit(tx.ID(), ts); err != nil {
		t.Fatal(err)
	}
	tx.Abort() // local txn bookkeeping; the OFM already committed
}

func scanBatchLen(t *testing.T, o *OFM, view View) int {
	t.Helper()
	b, _, err := o.ScanBatch(view, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b.Len()
}

// TestColumnCacheRebuildOnWrite pins the invalidation contract: the
// first batch scan builds the cache (reporting its bytes), repeated
// scans hit the same generation for free, and any committed write bumps
// the store version so the next batch scan rebuilds.
func TestColumnCacheRebuildOnWrite(t *testing.T) {
	var horizon atomic.Uint64
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 20)

	b, built, err := o.ScanBatch(Latest, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b == nil || b.Len() != 20 {
		t.Fatalf("first batch scan = %v", b)
	}
	if built <= 0 {
		t.Error("first batch scan must report the cache build bytes")
	}
	gen1 := o.cc
	if gen1 == nil {
		t.Fatal("no cache generation installed")
	}

	// A second scan is a hit: no bytes built, same generation.
	if _, built, err = o.ScanBatch(Latest, nil, nil); err != nil {
		t.Fatal(err)
	}
	if built != 0 {
		t.Errorf("cache hit built %d bytes", built)
	}
	if o.cc != gen1 {
		t.Error("cache rebuilt without a write")
	}

	// A committed insert invalidates: next scan rebuilds and sees it.
	tx := mgr.Begin()
	if err := o.InsertTx(tx.ID(), emp(100, "new", 999)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 5)
	b, built, err = o.ScanBatch(Latest, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if built <= 0 {
		t.Error("post-write scan must rebuild the cache")
	}
	if o.cc == gen1 {
		t.Error("stale cache generation survived a committed write")
	}
	if b.Len() != 21 {
		t.Errorf("post-write batch scan = %d rows, want 21", b.Len())
	}
}

// TestColumnCacheServesOldSnapshots proves one cache generation answers
// any snapshot: after a delete and an insert commit at ts=10, a scan at
// an older watermark still sees the pre-commit image — with no rebuild
// between the two reads.
func TestColumnCacheServesOldSnapshots(t *testing.T) {
	var horizon atomic.Uint64
	horizon.Store(1) // pin GC below the commits so dead versions survive
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 10)

	tx := mgr.Begin()
	pred := expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(3)))
	if n, err := o.DeleteTx(tx.ID(), pred, Latest); err != nil || n != 3 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if err := o.InsertTx(tx.ID(), emp(100, "new", 999)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 10)

	// New snapshot: 7 survivors + 1 insert.
	if n := scanBatchLen(t, o, View{TS: 15}); n != 8 {
		t.Errorf("scan at ts=15 = %d rows, want 8", n)
	}
	gen := o.cc
	// Old snapshot, same cache generation: the 10 original rows.
	if n := scanBatchLen(t, o, View{TS: 5}); n != 10 {
		t.Errorf("scan at ts=5 = %d rows, want 10", n)
	}
	if o.cc != gen {
		t.Error("old-snapshot scan rebuilt the cache")
	}
	// Latest sees the post-commit image.
	if n := scanBatchLen(t, o, Latest); n != 8 {
		t.Errorf("scan at latest = %d rows, want 8", n)
	}
}

// TestColumnCacheVacuumDropsDeadVersions: vacuuming reclaims dead
// versions from the store, which bumps the version counter so the next
// rebuild carries only the surviving rows.
func TestColumnCacheVacuumDropsDeadVersions(t *testing.T) {
	var horizon atomic.Uint64
	horizon.Store(1)
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 10)

	tx := mgr.Begin()
	pred := expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(4)))
	if _, err := o.DeleteTx(tx.ID(), pred, Latest); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 10)

	// The cache carries every version, dead ones included.
	if n := scanBatchLen(t, o, Latest); n != 6 {
		t.Fatalf("visible rows = %d, want 6", n)
	}
	if o.cc.rows != 10 {
		t.Fatalf("cached versions = %d, want 10 (dead versions cached)", o.cc.rows)
	}

	// Advance the horizon past the delete and vacuum: the next rebuild
	// drops the reclaimed versions from the cache.
	horizon.Store(20)
	if freed := o.Vacuum(); freed != 4 {
		t.Fatalf("vacuum freed %d, want 4", freed)
	}
	if n := scanBatchLen(t, o, Latest); n != 6 {
		t.Errorf("post-vacuum visible rows = %d, want 6", n)
	}
	if o.cc.rows != 6 {
		t.Errorf("post-vacuum cached versions = %d, want 6", o.cc.rows)
	}
	if !o.cc.allCurrent {
		t.Error("a fully vacuumed unversioned fragment should scan dense")
	}
}

// TestScanBatchAnswersFromRows pins the cases the column cache cannot
// answer: ScanBatch serves them from the row Scan, transposed, and never
// hands the scan back to its caller.
func TestScanBatchAnswersFromRows(t *testing.T) {
	same := func(name string, o *OFM, view View, pred expr.Expr) {
		t.Helper()
		want, err := o.Scan(view, pred, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := o.ScanBatch(view, pred, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := b.Materialize(); !got.SameBag(want) {
			t.Errorf("%s: batch %d rows vs row %d rows", name, got.Len(), want.Len())
		}
	}

	// Interpreted OFM (the E4 baseline): no compiled kernels.
	oi, _, _ := newOFM(t, false)
	load(t, oi, 10)
	same("interpreted", oi, Latest, expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(40))))

	var horizon atomic.Uint64
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 50)

	// A transaction with pending writes here must see its own overlay.
	tx := mgr.Begin()
	if err := o.InsertTx(tx.ID(), emp(100, "new", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := o.DeleteTx(tx.ID(), expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(5))), Latest); err != nil {
		t.Fatal(err)
	}
	overlay := View{TS: LatestTS, Tx: tx.ID()}
	if n := scanBatchLen(t, o, overlay); n != 46 {
		t.Errorf("overlay ScanBatch = %d rows, want 46", n)
	}
	same("overlay", o, overlay, nil)
	if n := scanBatchLen(t, o, Latest); n != 50 {
		t.Errorf("clean-view ScanBatch = %d rows, want 50", n)
	}
	tx.Abort()

	// An indexed point predicate: the hash probe beats any scan.
	if _, err := o.Store().CreateHashIndex("by_id", []int{0}); err != nil {
		t.Fatal(err)
	}
	point := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(42)))
	same("point probe", o, Latest, point)
	b, _, err := o.ScanBatch(Latest, point, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || len(b.Cols) != 1 || b.Value(0, 0).Int() != 420 {
		t.Errorf("projected point probe = %v", b.Materialize().Tuples)
	}
}

// TestScanBatchMatchesScan is the fragment-level differential: for a
// spread of predicates and projections the batch scan materializes to
// exactly what the row scan returns.
func TestScanBatchMatchesScan(t *testing.T) {
	var horizon atomic.Uint64
	horizon.Store(1)
	o, mgr := newMVCCOFM(t, &horizon)
	load(t, o, 60)
	// Mix in MVCC churn so visibility selection is exercised too.
	tx := mgr.Begin()
	if _, err := o.DeleteTx(tx.ID(), expr.NewCmp(expr.GE, expr.NewCol("id"), expr.NewConst(value.NewInt(55))), Latest); err != nil {
		t.Fatal(err)
	}
	if err := o.InsertTx(tx.ID(), emp(200, "eng", 75)); err != nil {
		t.Fatal(err)
	}
	commitAt(t, o, tx, 10)

	preds := []expr.Expr{
		nil,
		expr.NewCmp(expr.LT, expr.NewCol("id"), expr.NewConst(value.NewInt(25))),
		expr.NewAnd(
			expr.NewCmp(expr.EQ, expr.NewCol("dept"), expr.NewConst(value.NewString("eng"))),
			expr.NewCmp(expr.GT, expr.NewCol("salary"), expr.NewConst(value.NewInt(100)))),
		expr.NewOr(
			expr.NewCmp(expr.LE, expr.NewCol("salary"), expr.NewConst(value.NewInt(50))),
			expr.NewCmp(expr.GE, expr.NewCol("salary"), expr.NewConst(value.NewInt(400)))),
		expr.NewLike(expr.NewCol("dept"), "e%", false), // row-fallback kernel inside the vec filter
	}
	views := []View{Latest, {TS: 5}, {TS: 15}}
	for pi, p := range preds {
		for vi, v := range views {
			for _, cols := range [][]int{nil, {0}, {2, 0}} {
				var pc expr.Expr
				if p != nil {
					pc = expr.Clone(p)
				}
				want, err := o.Scan(v, pc, cols)
				if err != nil {
					t.Fatal(err)
				}
				if p != nil {
					pc = expr.Clone(p)
				}
				b, _, err := o.ScanBatch(v, pc, cols)
				if err != nil {
					t.Fatal(err)
				}
				got := b.Materialize()
				if !got.SameBag(want) {
					t.Errorf("pred %d view %d cols %v: batch %d rows vs row %d rows",
						pi, vi, cols, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestColumnCacheChargesPEMemory pins the cache's PE memory accounting
// across rebuilds: a generation is charged to the PE only when it fits,
// and a rebuild frees exactly what the old generation charged, so the
// PE's MemUsed is always the store's bytes plus the current charge —
// whether the cache fits (generous memory) or not (tight memory).
func TestColumnCacheChargesPEMemory(t *testing.T) {
	build := func(memory int64) (*OFM, *machine.PE, *txn.Manager) {
		m, err := machine.New(machine.Config{NumPEs: 2, MemoryPerPE: memory})
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(Config{Name: "cc#0", Schema: testSchema(), PE: m.PE(0), Kind: Transient, Compiled: true})
		if err != nil {
			t.Fatal(err)
		}
		load(t, o, 200)
		return o, m.PE(0), txn.NewManager()
	}
	// Measure the store and one cache generation with room to spare.
	o, _, _ := build(1 << 30)
	if _, _, err := o.ScanBatch(Latest, nil, nil); err != nil {
		t.Fatal(err)
	}
	storeBytes, cacheBytes := o.store.MemSize(), o.cc.bytes

	for _, c := range []struct {
		name    string
		memory  int64
		charged bool
	}{
		{"fits", 1 << 30, true},
		{"tight", storeBytes + cacheBytes/2, false},
	} {
		o, pe, mgr := build(c.memory)
		for i := 0; i < 5; i++ {
			if _, _, err := o.ScanBatch(Latest, nil, nil); err != nil {
				t.Fatal(err)
			}
			if got := o.cc.charged > 0; got != c.charged {
				t.Fatalf("%s rebuild %d: charged %d of %d bytes", c.name, i, o.cc.charged, o.cc.bytes)
			}
			if want := o.store.MemSize() + o.cc.charged; pe.MemUsed() != want {
				t.Fatalf("%s rebuild %d: PE MemUsed %d, want store %d + cache charge %d",
					c.name, i, pe.MemUsed(), o.store.MemSize(), o.cc.charged)
			}
			// A committed insert makes the next scan rebuild the cache.
			tx := mgr.Begin()
			tx.Enlist(o)
			if err := o.InsertTx(tx.ID(), emp(int64(1000+i), "new", 1)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
