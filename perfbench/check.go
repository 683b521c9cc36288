package main

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// querier is what the checks need from a connection: client.Client over
// TCP and core.Session in process both satisfy it.
type querier interface {
	Query(sql string) (*value.Relation, error)
}

// intOf reads an integer result column (COUNT, or SUM over INT).
func intOf(v value.Value) (int64, error) {
	if v.Kind() != value.KindInt {
		return 0, fmt.Errorf("%v is not an INT", v)
	}
	return v.Int(), nil
}

// checkPoint: a point SELECT returns exactly its key's row.
func (a *acctData) checkPoint(k int64, rel *value.Relation) error {
	if rel.Len() != 1 {
		return fmt.Errorf("point read of id %d returned %d rows", k, rel.Len())
	}
	t := rel.Tuples[0]
	if len(t) != 3 || t[0].Int() != k || t[1].Str() != regions[a.region[k]] {
		return fmt.Errorf("point read of id %d returned %v", k, t)
	}
	return nil
}

// groups reads a (key, n, total) GROUP BY result into a map.
func groups(rel *value.Relation) (map[string]agg, error) {
	out := make(map[string]agg, rel.Len())
	for _, t := range rel.Tuples {
		if len(t) != 3 {
			return nil, fmt.Errorf("group row %v: want 3 columns", t)
		}
		n, err := intOf(t[1])
		if err != nil {
			return nil, err
		}
		sum, err := intOf(t[2])
		if err != nil {
			return nil, err
		}
		key := t[0].String()
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("group %s appears twice", key)
		}
		out[key] = agg{n, sum}
	}
	return out, nil
}

// sameGroups compares a GROUP BY result with the expected groups.
func sameGroups(rel *value.Relation, keys []string, want []agg) error {
	got, err := groups(rel)
	if err != nil {
		return err
	}
	nonEmpty := 0
	for i, k := range keys {
		if want[i].n == 0 {
			continue
		}
		nonEmpty++
		if got[k] != want[i] {
			return fmt.Errorf("group %s = %v, want %v", k, got[k], want[i])
		}
	}
	if len(got) != nonEmpty {
		return fmt.Errorf("%d groups, want %d", len(got), nonEmpty)
	}
	return nil
}

// checkScan compares an analytics shape's answer with the answer
// computed from the generated rows.
func (s *salesData) checkScan(sh, lit int, rel *value.Relation) error {
	switch sh {
	case shAggLow:
		return sameGroups(rel, regions, s.low[lit][:])
	case shAggHigh:
		keys := make([]string, products)
		for i := range keys {
			keys[i] = fmt.Sprint(i)
		}
		return sameGroups(rel, keys, s.high[lit][:])
	case shJoinAgg:
		return sameGroups(rel, segments, s.joinSeg[lit][:])
	case shCount50:
		if rel.Len() != 1 || len(rel.Tuples[0]) != 1 {
			return fmt.Errorf("count returned %v", rel)
		}
		n, err := intOf(rel.Tuples[0][0])
		if err != nil {
			return err
		}
		if n != s.below[lit] {
			return fmt.Errorf("count below %d = %d, want %d", lit, n, s.below[lit])
		}
		return nil
	case shFilter1:
		var got agg
		lo, hi := int64(lit*100), int64(lit*100+100)
		for _, t := range rel.Tuples {
			if len(t) != 6 || t[0].Int() < 0 || t[0].Int() >= salesRows {
				return fmt.Errorf("filter [%d,%d) returned wrong row %v", lo, hi, t)
			}
			id, amt := t[0].Int(), t[4].Int()
			if amt < lo || amt >= hi || int64(s.amount[id]) != amt || int64(s.day[id]) != t[5].Int() {
				return fmt.Errorf("filter [%d,%d) returned wrong row %v", lo, hi, t)
			}
			got.add(id)
		}
		if got != s.band[lit] {
			return fmt.Errorf("filter [%d,%d) returned %v (n, sum of ids), want %v", lo, hi, got, s.band[lit])
		}
		return nil
	}
	return fmt.Errorf("shape %s has no sales check", shapeNames[sh])
}

// checkScan checks the htap scans over acct, which run while a writer
// inserts and deletes private keys: every region keeps its loaded count
// and at most one 'tmp' row is visible, so COUNT(*) is rows or rows+1.
func (a *acctData) checkScan(sh, lit int, rel *value.Relation) error {
	switch sh {
	case shAcctAgg:
		got, err := groups(rel)
		if err != nil {
			return err
		}
		var total int64
		for k, g := range got {
			total += g.n
			if k == "tmp" && g.n == 1 {
				continue
			}
			i := indexOf(regions, k)
			if i < 0 {
				return fmt.Errorf("unexpected group %s with %d rows", k, g.n)
			}
			if g.n != a.regionCount[i] {
				return fmt.Errorf("region %s count %d, want %d", k, g.n, a.regionCount[i])
			}
		}
		if total != acctRows && total != acctRows+1 {
			return fmt.Errorf("COUNT(*) = %d, want %d or %d", total, acctRows, acctRows+1)
		}
		return nil
	case shAcctRange:
		if rel.Len() != rangeRows {
			return fmt.Errorf("id range [%d,%d) returned %d rows", lit, lit+rangeRows, rel.Len())
		}
		ids := make([]int64, rel.Len())
		for i, t := range rel.Tuples {
			ids[i] = t[0].Int()
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for i, id := range ids {
			if id != int64(lit+i) {
				return fmt.Errorf("id range [%d,%d) returned id %d at rank %d", lit, lit+rangeRows, id, i)
			}
		}
		return nil
	}
	return fmt.Errorf("shape %s has no acct check", shapeNames[sh])
}

func indexOf(xs []string, x string) int {
	for i, s := range xs {
		if s == x {
			return i
		}
	}
	return -1
}

// ledger is the acct state the generator expects from acknowledged
// writes: row count and balance total. Transfers net zero and aborted
// statements change nothing.
type ledger struct{ rows, sum int64 }

// audit compares the table's COUNT(*) and SUM(balance) with the ledger.
func audit(q querier, want ledger) error {
	rel, err := q.Query("SELECT COUNT(*) AS n, SUM(balance) AS total FROM acct")
	if err != nil {
		return fmt.Errorf("ledger audit: %w", err)
	}
	if rel.Len() != 1 || len(rel.Tuples[0]) != 2 {
		return fmt.Errorf("ledger audit returned %v", rel)
	}
	n, err := intOf(rel.Tuples[0][0])
	if err != nil {
		return err
	}
	sum, err := intOf(rel.Tuples[0][1])
	if err != nil {
		return err
	}
	if n != want.rows || sum != want.sum {
		return fmt.Errorf("ledger audit: COUNT(*)=%d SUM(balance)=%d, generator expects %d and %d", n, sum, want.rows, want.sum)
	}
	return nil
}
