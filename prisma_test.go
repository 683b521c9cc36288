package prisma

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func openTest(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{NumPEs: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	db := openTest(t)
	s := db.Session()
	defer s.Close()
	if _, err := s.Exec(`CREATE TABLE emp (id INT, dept VARCHAR, salary INT, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO emp VALUES (1,'eng',100), (2,'ops',90), (3,'eng',120)`); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Query(`SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || rel.Tuples[0][0].Str() != "eng" || rel.Tuples[0][1].Int() != 2 {
		t.Errorf("result = %v", rel.Tuples)
	}
	// Rendered output is a table.
	if !strings.Contains(rel.String(), "dept") {
		t.Errorf("String() = %q", rel.String())
	}
}

func TestPublicDatalog(t *testing.T) {
	db := openTest(t)
	s := db.Session()
	defer s.Close()
	if _, err := s.Exec(`CREATE TABLE edge (src INT, dst INT) FRAGMENT BY HASH(src) INTO 2 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	var tuples []Tuple
	for i := int64(0); i < 10; i++ {
		tuples = append(tuples, Tuple{NewInt(i), NewInt(i + 1)})
	}
	if err := db.LoadTable("edge", tuples); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterRules(`
		reach(X, Y) :- edge(X, Y).
		reach(X, Y) :- edge(X, Z), reach(Z, Y).
	`); err != nil {
		t.Fatal(err)
	}
	rel, err := s.DatalogQuery(`reach(0, X)`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 10 {
		t.Errorf("reachable from 0 = %d", rel.Len())
	}
	answers, err := s.DatalogProgram(`?- reach(X, 10).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || answers[0].Len() != 10 {
		t.Errorf("program answers = %v", answers)
	}
	db.ClearRules()
}

func TestCrashRecoveryPublicAPI(t *testing.T) {
	db := openTest(t)
	s := db.Session()
	defer s.Close()
	if _, err := s.Exec(`CREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id)) FRAGMENT BY HASH(id) INTO 2 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO acct VALUES (1, 100), (2, 200)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`UPDATE acct SET bal = bal - 50 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := db.CrashTable("acct"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RecoverTable("acct"); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Query(`SELECT bal FROM acct WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].Int() != 50 {
		t.Errorf("balance after recovery = %v", rel.Tuples[0])
	}
	if err := db.CheckpointTable("acct"); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizerConfig(t *testing.T) {
	opts := OptimizerOptions{} // no rules
	db, err := Open(Config{NumPEs: 16, Optimizer: &opts})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	if _, err := s.Exec(`CREATE TABLE t (x INT) FRAGMENT BY HASH(x) INTO 4 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (1), (2), (3), (4), (5)`); err != nil {
		t.Fatal(err)
	}
	rel, err := s.Query(`SELECT x FROM t WHERE x >= 4`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("no-rules query = %d rows", rel.Len())
	}
}

func TestRandomPlacementConfig(t *testing.T) {
	db, err := Open(Config{NumPEs: 16, RandomPlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	if _, err := s.Exec(`CREATE TABLE t (x INT) FRAGMENT BY HASH(x) INTO 8 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatedTimeVisible(t *testing.T) {
	db := openTest(t)
	s := db.Session()
	if _, err := s.Exec(`CREATE TABLE t (x INT) FRAGMENT BY HASH(x) INTO 4 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i := 0; i < 200; i++ {
		rows = append(rows, fmt.Sprintf("(%d)", i))
	}
	if _, err := s.Exec(`INSERT INTO t VALUES ` + strings.Join(rows, ",")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`SELECT COUNT(*) AS n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime <= 0 {
		t.Errorf("SimTime = %v", res.SimTime)
	}
	if res.Rel.Tuples[0][0].Int() != 200 {
		t.Errorf("count = %v", res.Rel.Tuples[0])
	}
}

func TestConcurrentPublicSessions(t *testing.T) {
	db := openTest(t)
	s := db.Session()
	if _, err := s.Exec(`CREATE TABLE t (x INT, PRIMARY KEY (x)) FRAGMENT BY HASH(x) INTO 4 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.Session()
			defer sess.Close()
			for i := 0; i < 10; i++ {
				if _, err := sess.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, w*100+i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	rel, err := s.Query(`SELECT COUNT(*) AS n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][0].Int() != 80 {
		t.Errorf("count = %v", rel.Tuples[0])
	}
}

func TestPublicStream(t *testing.T) {
	db := openTest(t)
	s := db.Session()
	defer s.Close()
	if _, err := s.Exec(`CREATE TABLE emp (id INT, dept VARCHAR, PRIMARY KEY (id))
		FRAGMENT BY HASH(id) INTO 4 FRAGMENTS`); err != nil {
		t.Fatal(err)
	}
	tuples := make([]Tuple, 1000)
	for i := range tuples {
		tuples[i] = Tuple{NewInt(int64(i)), NewString("eng")}
	}
	if err := db.LoadTable("emp", tuples); err != nil {
		t.Fatal(err)
	}
	cur, res, err := s.Stream(`SELECT * FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("SELECT produced a materialized result: %+v", res)
	}
	defer cur.Close()
	n := 0
	batches := 0
	for {
		rel, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rel == nil {
			break
		}
		n += rel.Len()
		batches++
	}
	if n != 1000 {
		t.Fatalf("streamed %d rows, want 1000", n)
	}
	if batches < 2 {
		t.Fatalf("expected fragment-at-a-time batches, got %d", batches)
	}
	// Non-SELECT statements come back materialized.
	_, res, err = s.Stream(`INSERT INTO emp VALUES (1000, 'ops')`)
	if err != nil || res == nil || res.Affected != 1 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestMustOpenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustOpen with bad config should panic")
		}
	}()
	MustOpen(Config{NumPEs: -1})
}
