package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/value"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, m := range []mix{oltpMix, writeMix, scanMix} {
		shapes := []int{shAggLow, shAggHigh, shFilter1, shCount50, shJoinAgg}
		a, b := newStream(7, 1, m, shapes), newStream(7, 1, m, shapes)
		other := newStream(8, 1, m, shapes)
		differs := false
		for i := 0; i < 1000; i++ {
			x, y, z := a.next(), b.next(), other.next()
			if x != y {
				t.Fatalf("statement %d: %+v vs %+v from the same seed", i, x, y)
			}
			differs = differs || x.sql != z.sql
		}
		if !differs {
			t.Errorf("mix %+v: seeds 7 and 8 gave the same 1000 statements", m)
		}
	}
}

func TestSameSeedSameData(t *testing.T) {
	a, b := genSales(3), genSales(3)
	if a.low != b.low || a.below != b.below || a.amount[12345] != b.amount[12345] {
		t.Fatal("same seed generated different sales data")
	}
	if x, y := genAcct(3), genAcct(3); x.sum != y.sum || x.regionCount != y.regionCount {
		t.Fatal("same seed generated different acct data")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{19, 0.5, false}, {20, 0.5, true},
		{0, 0.5, false},
	} {
		v, ok := percentile(samples(c.n), c.p)
		if ok != c.ok {
			t.Errorf("p%.0f of %d samples: ok=%v, want %v", c.p*100, c.n, ok, c.ok)
		}
		if ok && float64(c.n)-v < minBeyond {
			t.Errorf("p%.0f of %d samples = %v leaves fewer than %d beyond", c.p*100, c.n, v, minBeyond)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{name: "stmt", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},  // overlaps a
		{name: "c", start: 90, end: 120, parent: 0}, // runs past its parent
		{name: "d", start: 25, end: 28, parent: 2},
	}
	got := selfTimes(spans)
	want := []int64{50, 20, 27, 30, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	tr := newTracer(time.Now())
	outer := tr.begin("outer", 1)
	inner := tr.begin("inner", 1)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].parent != outer || tr.spans[outer].parent != -1 {
		t.Errorf("tracer parents = %d, %d", tr.spans[outer].parent, tr.spans[inner].parent)
	}
}

// loadedAcct boots an in-process engine holding the generated acct table.
func loadedAcct(t *testing.T, d *data) *core.Session {
	t.Helper()
	eng, err := core.New(core.Config{NumPEs: numPEs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	if err := load(eng, d.tables()); err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession()
	t.Cleanup(s.Close)
	return s
}

func TestAuditsCatchPlantedFaults(t *testing.T) {
	d := &data{acct: genAcct(5)}
	s := loadedAcct(t, d)
	want := ledger{rows: acctRows, sum: d.acct.sum}
	if err := audit(s, want); err != nil {
		t.Fatalf("untouched table fails the audit: %v", err)
	}
	query := func(sql string) *value.Relation {
		t.Helper()
		rel, err := s.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	if err := d.acct.checkPoint(7, query("SELECT * FROM acct WHERE id = 7")); err != nil {
		t.Fatalf("correct row rejected: %v", err)
	}

	// A wrong row: the stored region no longer matches the generated one.
	if _, err := s.Exec("UPDATE acct SET region = 'nowhere' WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	if err := d.acct.checkPoint(7, query("SELECT * FROM acct WHERE id = 7")); err == nil {
		t.Error("point check accepted a wrong row")
	}
	if err := d.acct.checkScan(shAcctAgg, 0, query(shapeSQL(shAcctAgg, 0))); err == nil {
		t.Error("htap count check accepted a row moved out of its region")
	}

	// A lost write: the generator saw an UPDATE acknowledged that the
	// table does not hold.
	if _, err := s.Exec("UPDATE acct SET balance = balance + 5 WHERE id = 9"); err != nil {
		t.Fatal(err)
	}
	want.sum += 5
	if err := audit(s, want); err != nil {
		t.Fatalf("acknowledged write fails the audit: %v", err)
	}
	want.sum += 3
	if err := audit(s, want); err == nil || !strings.Contains(err.Error(), "ledger audit") {
		t.Errorf("audit missed a lost write: %v", err)
	}
	// A lost insert: the row count is off.
	if err := audit(s, ledger{rows: acctRows + 1, sum: want.sum - 3}); err == nil {
		t.Error("audit missed a lost insert")
	}
}

func TestScanChecksCatchWrongAnswers(t *testing.T) {
	d := &data{sales: genSales(4)}
	eng, err := core.New(core.Config{NumPEs: numPEs})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := load(eng, d.tables()); err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession()
	defer s.Close()
	lits := map[int]int{shAggLow: 3, shAggHigh: 0, shFilter1: 42, shCount50: 5000, shJoinAgg: 29}
	for sh, lit := range lits {
		rel, err := s.Query(shapeSQL(sh, lit))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.sales.checkScan(sh, lit, rel); err != nil {
			t.Errorf("%s: correct answer rejected: %v", shapeNames[sh], err)
		}
		// Plant a wrong row: bump the first row's last column.
		bad := rel.Clone()
		row := bad.Tuples[0].Clone()
		last := len(row) - 1
		row[last] = value.NewInt(row[last].Int() + 1)
		bad.Tuples[0] = row
		if err := d.sales.checkScan(sh, lit, bad); err == nil {
			t.Errorf("%s: planted wrong row accepted", shapeNames[sh])
		}
	}
}
