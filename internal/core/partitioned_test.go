package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/value"
)

// setupStar creates a 3-table star schema sized so the optimizer picks
// repartition joins (every input estimate clears the 2000-row
// threshold), plus a small single-fragment table that it broadcasts,
// and loads identical data into the given engines.
func setupStar(t testing.TB, engines ...*Engine) {
	t.Helper()
	ddl := []string{
		`CREATE TABLE fact (id INT, a INT, b INT, amt INT, PRIMARY KEY (id))
			FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`,
		`CREATE TABLE dim1 (id INT, w INT, PRIMARY KEY (id))
			FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`,
		`CREATE TABLE dim2 (id INT, cat VARCHAR, PRIMARY KEY (id))
			FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`,
		`CREATE TABLE tiny (id INT, tag VARCHAR, PRIMARY KEY (id))`,
	}
	const dimRows = 2200
	const factRows = 4400
	cats := []string{"red", "green", "blue", "gray"}
	const tinyRows = 300
	var d1, d2, f, tn []string
	for i := 0; i < tinyRows; i++ {
		tn = append(tn, fmt.Sprintf("(%d, 't%d')", i, i%5))
	}
	for i := 0; i < dimRows; i++ {
		d1 = append(d1, fmt.Sprintf("(%d, %d)", i, i%7))
		d2 = append(d2, fmt.Sprintf("(%d, '%s')", i, cats[i%len(cats)]))
	}
	for i := 0; i < factRows; i++ {
		f = append(f, fmt.Sprintf("(%d, %d, %d, %d)", i, i%dimRows, (i*13)%dimRows, i%97))
	}
	for _, e := range engines {
		s := e.NewSession()
		for _, stmt := range ddl {
			mustExec(t, s, stmt)
		}
		mustExec(t, s, "INSERT INTO dim1 VALUES "+strings.Join(d1, ", "))
		mustExec(t, s, "INSERT INTO dim2 VALUES "+strings.Join(d2, ", "))
		mustExec(t, s, "INSERT INTO fact VALUES "+strings.Join(f, ", "))
		mustExec(t, s, "INSERT INTO tiny VALUES "+strings.Join(tn, ", "))
	}
}

// centralEngine builds an engine whose optimizer never parallelizes:
// every join is JoinCentral and every aggregate/sort/distinct runs at
// the coordinator — the reference the partitioned executor must match.
func centralEngine(t *testing.T) *Engine {
	t.Helper()
	noPar := optimizer.Options{Pushdown: true, JoinOrder: true, CSE: true, PointProbe: true}
	e, err := New(Config{NumPEs: 16, Optimizer: &noPar})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// partitionedPlanQueries are the differential suite: every shape the
// partitioned dataflow path must answer identically to the central
// executor — joins of joins, operators between scan and join, grouped
// and global aggregation over joins, parallel sort/distinct, swapped
// builds and residual predicates.
var partitionedPlanQueries = []string{
	// 1: plain join of two large tables (repartition, swapped build).
	`SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id`,
	// 2: join of joins (3-table star).
	`SELECT f.id, d1.w, d2.cat FROM fact f
		JOIN dim1 d1 ON f.a = d1.id JOIN dim2 d2 ON f.b = d2.id`,
	// 3: grouped aggregation over a join of joins.
	`SELECT d2.cat, COUNT(*) AS n, SUM(f.amt) AS total FROM fact f
		JOIN dim1 d1 ON f.a = d1.id JOIN dim2 d2 ON f.b = d2.id
		GROUP BY d2.cat`,
	// 4: global aggregate (no GROUP BY) over a join.
	`SELECT COUNT(*) AS n, MIN(f.amt) AS lo, AVG(d1.w) AS mean
		FROM fact f JOIN dim1 d1 ON f.a = d1.id`,
	// 5: selection and projection between scan and join.
	`SELECT f.id, f.amt + d1.w AS score FROM fact f
		JOIN dim1 d1 ON f.a = d1.id
		WHERE f.amt > 40 AND d1.w < 5`,
	// 6: residual (cross-table non-equi) predicate on the join.
	`SELECT f.id FROM fact f JOIN dim1 d1 ON f.a = d1.id
		WHERE f.amt > d1.w * 10`,
	// 7: ORDER BY over a join (per-partition sort + k-way merge).
	`SELECT f.id, d1.w FROM fact f JOIN dim1 d1 ON f.a = d1.id
		WHERE f.amt > 80 ORDER BY f.id DESC`,
	// 8: DISTINCT over a projected join.
	`SELECT DISTINCT d2.cat FROM fact f JOIN dim2 d2 ON f.b = d2.id`,
	// 9: HAVING over a partitioned grouped aggregate.
	`SELECT d2.cat, COUNT(*) AS n FROM fact f JOIN dim2 d2 ON f.b = d2.id
		GROUP BY d2.cat HAVING n > 10`,
	// 10: ORDER BY + LIMIT over an aggregate over a join.
	`SELECT d2.cat, SUM(f.amt) AS total FROM fact f JOIN dim2 d2 ON f.b = d2.id
		GROUP BY d2.cat ORDER BY total DESC LIMIT 2`,
	// 11: self-join over CSE-shared scans.
	`SELECT COUNT(*) AS n FROM fact x JOIN fact y ON x.id = y.id`,
	// 12: join against a small single-fragment table (broadcast).
	`SELECT f.id, t.tag FROM fact f JOIN tiny t ON f.a = t.id WHERE f.amt > 50`,
	// 13: grouped aggregation over a broadcast join.
	`SELECT t.tag, COUNT(*) AS n, SUM(f.amt) AS s FROM fact f JOIN tiny t ON f.b = t.id GROUP BY t.tag`,
	// 14: ORDER BY a column the select list drops, over a join: the sort
	// key must survive the exchange's column pruning.
	`SELECT d1.w, f.amt FROM fact f JOIN dim1 d1 ON f.a = d1.id ORDER BY f.id DESC`,
	// 15: 3-way join whose middle join key is not selected.
	`SELECT f.amt, d2.cat FROM fact f
		JOIN dim1 d1 ON f.a = d1.id JOIN dim2 d2 ON f.b = d2.id`,
	// 16: broadcast join that reads only the key column of tiny.
	`SELECT f.id, f.amt FROM fact f JOIN tiny t ON f.a = t.id`,
	// 17: SELECT * over a join: every column is read, nothing is pruned.
	`SELECT * FROM fact f JOIN dim1 d1 ON f.a = d1.id`,
}

// TestPartitionedMatchesCentral runs the differential suite on the
// exchange-based executor and on a central-only engine over identical
// data and requires identical result sets (order-sensitive where the
// query orders).
func TestPartitionedMatchesCentral(t *testing.T) {
	ePar := newEngine(t)
	eCen := centralEngine(t)
	setupStar(t, ePar, eCen)
	sPar, sCen := ePar.NewSession(), eCen.NewSession()
	for i, q := range partitionedPlanQueries {
		a, err := sPar.Query(q)
		if err != nil {
			t.Fatalf("query %d partitioned: %v", i+1, err)
		}
		b, err := sCen.Query(q)
		if err != nil {
			t.Fatalf("query %d central: %v", i+1, err)
		}
		ordered := strings.Contains(strings.ToUpper(q), "ORDER BY")
		if ordered {
			if a.Len() != b.Len() {
				t.Errorf("query %d: %d rows partitioned vs %d central", i+1, a.Len(), b.Len())
				continue
			}
			for r := range a.Tuples {
				if !value.EqualTuples(a.Tuples[r], b.Tuples[r]) {
					t.Errorf("query %d row %d: %v != %v", i+1, r, a.Tuples[r], b.Tuples[r])
					break
				}
			}
		} else if !a.SameBag(b) {
			t.Errorf("query %d: partitioned result differs from central\npartitioned: %d rows\ncentral: %d rows",
				i+1, a.Len(), b.Len())
		}
	}
}

// TestExplainShowsPartitionedPlan proves via EXPLAIN that a join of
// joins with aggregation runs fully partitioned: Exchange nodes are in
// the tree, joins are repartitioned, the aggregate is pushed down, and
// no central join remains.
func TestExplainShowsPartitionedPlan(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	s := e.NewSession()
	res := mustExec(t, s, `EXPLAIN SELECT d2.cat, COUNT(*) AS n FROM fact f
		JOIN dim1 d1 ON f.a = d1.id JOIN dim2 d2 ON f.b = d2.id
		GROUP BY d2.cat`)
	if res.Rel == nil || res.Rel.Len() == 0 {
		t.Fatal("EXPLAIN produced no rows")
	}
	if got := res.Rel.Schema.Len(); got != 1 {
		t.Fatalf("EXPLAIN schema has %d columns", got)
	}
	var b strings.Builder
	for _, row := range res.Rel.Tuples {
		b.WriteString(row[0].Str())
		b.WriteByte('\n')
	}
	planStr := b.String()
	for _, want := range []string{"Exchange(hash", "method=repartition", "pushdown=true"} {
		if !strings.Contains(planStr, want) {
			t.Errorf("plan lacks %q:\n%s", want, planStr)
		}
	}
	if strings.Contains(planStr, "method=central") {
		t.Errorf("plan still contains a central join:\n%s", planStr)
	}
}

// TestExplainShowsPrunedExchanges: exchanges ship only the columns the
// plan reads above them. The repartition, 3-way and broadcast shapes of
// the corpus narrow an exchange input with a Project of named columns;
// SELECT * keeps every column, so nothing is inserted.
func TestExplainShowsPrunedExchanges(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	s := e.NewSession()
	for _, tc := range []struct {
		q    string
		want []string
	}{
		{partitionedPlanQueries[13], []string{"Project(f.id, f.a, f.amt)"}},
		// The inner join's output drops its key (f.a) before the outer
		// exchange.
		{partitionedPlanQueries[14], []string{"Project(f.a, f.b, f.amt)", "Project(d1.id)", "Project(f.b, f.amt)"}},
		{partitionedPlanQueries[15], []string{"Exchange(broadcast)", "Project(t.id)"}},
		{partitionedPlanQueries[16], nil},
	} {
		res := mustExec(t, s, "EXPLAIN "+tc.q)
		if tc.want == nil && strings.Count(res.Plan, "Project(") > 0 {
			t.Errorf("SELECT * plan narrows an exchange:\n%s", res.Plan)
		}
		if !strings.Contains(res.Plan, "Exchange(") {
			t.Errorf("plan has no exchange:\n%s", res.Plan)
		}
		for _, w := range tc.want {
			if !strings.Contains(res.Plan, w) {
				t.Errorf("plan lacks %q:\n%s", w, res.Plan)
			}
		}
	}
}

// TestPrunedPreparedJoin executes one prepared broadcast join — its
// exchange input narrowed to the join key, with the parameter in the
// pruned side's filter — under two different bindings, and checks each
// against the central engine.
func TestPrunedPreparedJoin(t *testing.T) {
	ePar := newEngine(t)
	eCen := centralEngine(t)
	setupStar(t, ePar, eCen)
	sPar, sCen := ePar.NewSession(), eCen.NewSession()
	const q = `SELECT f.id, f.amt FROM fact f JOIN tiny t ON f.a = t.id WHERE t.tag = ?`
	ps, err := sPar.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"t1", "t3"} {
		args := []value.Value{value.NewString(tag)}
		res, err := sPar.ExecPrepared(ps, args)
		if err != nil {
			t.Fatalf("tag %s: %v", tag, err)
		}
		if !strings.Contains(res.Plan, "Project(t.id)") {
			t.Errorf("prepared plan does not narrow the broadcast side:\n%s", res.Plan)
		}
		want, err := sCen.Query(strings.Replace(q, "?", "'"+tag+"'", 1))
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || !res.Rel.SameBag(want) {
			t.Errorf("tag %s: prepared join %d rows, central %d", tag, res.Rel.Len(), want.Len())
		}
	}
}

// TestPrunedStreamJoin: a streamed pruned join delivers exactly the
// rows Query materializes.
func TestPrunedStreamJoin(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	s := e.NewSession()
	for _, q := range []string{partitionedPlanQueries[0], partitionedPlanQueries[13]} {
		want, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		cur, _, err := s.Stream(q)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, cur)
		if got.Len() != want.Len() || !got.SameBag(want) {
			t.Errorf("%s: streamed %d rows, queried %d", q, got.Len(), want.Len())
		}
		if strings.Contains(q, "ORDER BY") {
			for r := range want.Tuples {
				if !value.EqualTuples(got.Tuples[r], want.Tuples[r]) {
					t.Errorf("%s: row %d streamed %v, queried %v", q, r, got.Tuples[r], want.Tuples[r])
					break
				}
			}
		}
	}
}

// TestExplainTakesNoLocks runs EXPLAIN on a table whose fragments are
// all exclusively locked by another transaction; it must return
// immediately instead of queueing on the lock table.
func TestExplainTakesNoLocks(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE emp SET salary = salary + 1`) // X-locks every fragment
	s2 := e.NewSession()
	res, err := s2.Exec(`EXPLAIN SELECT e.id FROM emp e JOIN dept d ON e.dept = d.name`)
	if err != nil {
		t.Fatalf("EXPLAIN blocked or failed: %v", err)
	}
	if res.Rel == nil || res.Rel.Len() == 0 {
		t.Fatal("EXPLAIN produced no plan")
	}
	mustExec(t, s, `ROLLBACK`)
}

// TestExplainAccessAnnotations pins the EXPLAIN contract: SELECT plans
// carry the snapshot-read access line under MVCC, DML statements report
// the locked-write discipline, and nested EXPLAIN stays rejected.
func TestExplainAccessAnnotations(t *testing.T) {
	e := newEngine(t)
	s := setupEmp(t, e)
	res, err := s.Exec(`EXPLAIN SELECT * FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "snapshot read (no locks)") {
		t.Fatalf("EXPLAIN SELECT plan lacks snapshot-read access line:\n%s", res.Plan)
	}
	res, err = s.Exec(`EXPLAIN INSERT INTO dept VALUES ('x', 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "locked write (2PL exclusive + first-committer-wins)") {
		t.Fatalf("EXPLAIN INSERT plan lacks locked-write access line:\n%s", res.Plan)
	}
	if _, err := s.Exec(`EXPLAIN EXPLAIN SELECT * FROM emp`); err == nil {
		t.Fatal("nested EXPLAIN succeeded")
	}
}

// TestRestoreSwappedAllocs pins the join-emission fix: restoring the
// pre-swap column order of a whole relation reuses one scratch buffer
// instead of allocating a fresh tuple per row.
func TestRestoreSwappedAllocs(t *testing.T) {
	const rows = 1000
	tuples := make([]value.Tuple, rows)
	for i := range tuples {
		tuples[i] = value.NewTuple(
			value.NewInt(int64(i)), value.NewString("l"),
			value.NewInt(int64(i*2)), value.NewString("r"), value.NewInt(7),
		)
	}
	allocs := testing.AllocsPerRun(10, func() {
		restoreSwapped(tuples, 2)
		restoreSwapped(tuples, 3) // rotate back so the fixture stays valid
	})
	if allocs > 2 { // one scratch buffer per call
		t.Fatalf("restoreSwapped allocates %.0f times per double-restore; want <= 2", allocs)
	}
	// And it must actually restore: rotating by lw then by len-lw is a
	// round trip, so spot-check a single rotation.
	tup := value.NewTuple(value.NewInt(1), value.NewInt(2), value.NewInt(3))
	restoreSwapped([]value.Tuple{tup}, 1)
	want := []int64{2, 3, 1}
	for i, w := range want {
		if tup[i].Int() != w {
			t.Fatalf("restored tuple = %v, want %v", tup, want)
		}
	}
}

// TestSharedScanCacheNotMutated is the CSE aliasing regression suite:
// execScan hands out relations whose Tuples alias the per-query cache
// (and the fragment stores). No downstream operator — the swapped-join
// restore, in-place projection batches, or the partition splitters —
// may mutate those tuples when one shared scan feeds two plan arms.
func TestSharedScanCacheNotMutated(t *testing.T) {
	ePar := newEngine(t)
	eCen := centralEngine(t)
	setupStar(t, ePar, eCen)
	sPar, sCen := ePar.NewSession(), eCen.NewSession()

	// Snapshot the base table before any shared-scan query runs.
	before, err := sPar.Query(`SELECT * FROM fact`)
	if err != nil {
		t.Fatal(err)
	}
	beforeCopy := before.Clone()

	queries := []string{
		// Self-join: both arms share one scan; the join output is swapped
		// or not depending on estimates, and the partition splitters
		// redistribute the cached tuples into exchange buckets.
		`SELECT x.amt, y.amt FROM fact x JOIN fact y ON x.id = y.id WHERE x.amt > 50`,
		// Shared scan feeding a projection arm (in-place ApplyBatch) and
		// a join arm at once.
		`SELECT x.id + 1 AS next, y.b FROM fact x JOIN fact y ON x.id = y.id`,
		// Shared scan under aggregation over the join.
		`SELECT COUNT(*) AS n, SUM(x.amt) AS s FROM fact x JOIN fact y ON x.id = y.id`,
	}
	for i, q := range queries {
		a, err := sPar.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
		b, err := sCen.Query(q)
		if err != nil {
			t.Fatalf("query %d central: %v", i+1, err)
		}
		if !a.SameBag(b) {
			t.Errorf("query %d: shared-scan result differs from central (%d vs %d rows)", i+1, a.Len(), b.Len())
		}
	}

	// The base table must be bit-identical to the pre-query snapshot: any
	// in-place mutation of cached/stored tuples would show here.
	after, err := sPar.Query(`SELECT * FROM fact`)
	if err != nil {
		t.Fatal(err)
	}
	if !after.SameBag(beforeCopy) {
		t.Fatal("base table changed after read-only shared-scan queries")
	}
	// Re-running the first query must still agree with central (a
	// mutated CSE cache inside one statement would already have tripped
	// the SameBag check above; this guards cross-statement state).
	a, err := sPar.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := sCen.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !a.SameBag(b) {
		t.Error("rerun of shared-scan query diverged")
	}
}

// TestPartitionedConcurrentSessions hammers the partitioned paths from
// concurrent sessions (run under -race in CI): joins of joins, grouped
// aggregates and sorts all exercising exchanges at once.
func TestPartitionedConcurrentSessions(t *testing.T) {
	e := newEngine(t)
	setupStar(t, e)
	queries := []string{
		partitionedPlanQueries[1],
		partitionedPlanQueries[2],
		partitionedPlanQueries[6],
		partitionedPlanQueries[10],
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for i := 0; i < 6; i++ {
				if _, err := s.Query(queries[(w+i)%len(queries)]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}
