package optimizer

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fragment"
	"repro/internal/plan"
	"repro/internal/value"
)

// pruneCatalog holds two large tables fragmented on different columns,
// so a sales⋈cust join on cust repartitions both inputs.
func pruneCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	for _, tab := range []struct {
		name   string
		schema *value.Schema
	}{
		{"sales", value.MustSchema("id", "INT", "cust", "INT", "region", "VARCHAR", "amount", "INT")},
		{"cust", value.MustSchema("cust", "INT", "name", "VARCHAR", "segment", "VARCHAR", "credit", "INT")},
	} {
		tb, err := c.Create(tab.name, tab.schema,
			&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 4},
			fragment.Placement{0, 1, 2, 3}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			tb.UpdateStats(i, 2500, 160000)
		}
	}
	return c
}

// aliasScan scans a table with alias-qualified column names.
func aliasScan(t *testing.T, c *catalog.Catalog, table, alias string) *plan.Scan {
	t.Helper()
	tab, err := c.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Scan{Table: table, Out: tab.Schema.Rename(alias)}
}

// names renders the column names of a schema at the given positions.
func names(s *value.Schema, idxs []int) []string {
	out := make([]string, len(idxs))
	for i, ix := range idxs {
		out[i] = s.Column(ix).Name
	}
	return out
}

// exchangeChildren lists the column names of every Exchange's child,
// keyed by the first column's table alias.
func exchangeChildren(root plan.Node) map[string][]string {
	out := map[string][]string{}
	plan.Walk(root, func(n plan.Node) {
		if x, ok := n.(*plan.Exchange); ok {
			s := x.Child.Schema()
			all := make([]int, s.Len())
			for i := range all {
				all[i] = i
			}
			cols := names(s, all)
			alias := strings.SplitN(cols[0], ".", 2)[0]
			out[alias] = cols
		}
	})
	return out
}

// TestPruneColumnsSwappedResidualAggregate: for a swapped repartition
// join with a residual under a GROUP BY and an ORDER BY, each Exchange
// child carries exactly the columns read above it plus its hash keys,
// and every remapped index — join keys, exchange keys, residual and
// aggregate columns — resolves to the same column name as before.
func TestPruneColumnsSwappedResidualAggregate(t *testing.T) {
	c := pruneCatalog(t)
	s, cu := aliasScan(t, c, "sales", "s"), aliasScan(t, c, "cust", "c")
	// Restored order (Out): s.id s.cust s.region s.amount c.cust c.name
	// c.segment c.credit. The tree has cust on the left (swapped).
	out := s.Out.Concat(cu.Out)
	residual := bindOn(t, expr.NewCmp(expr.GT, expr.NewCol("s.amount"), expr.NewCol("c.credit")), out)
	j := &plan.Join{Left: cu, Right: s, LeftKeys: []int{0}, RightKeys: []int{1},
		Residual: residual, Swapped: true, Out: out}
	agg := &plan.Aggregate{Child: j, GroupBy: []int{6},
		Specs: []algebra.AggSpec{{Func: algebra.Count, Col: -1, As: "n"}, {Func: algebra.Sum, Col: 3, As: "total"}},
		Out:   value.MustSchema("c.segment", "VARCHAR", "n", "INT", "total", "INT")}
	root := &plan.Sort{Child: agg, Cols: []int{2}, Desc: []bool{true}}
	origSpecs := agg.Specs

	New(c, AllRules()).Optimize(root)
	f := plan.Format(root)
	if j.Method != plan.JoinRepartition || !j.Swapped {
		t.Fatalf("join is %v swapped=%v, want swapped repartition\n%s", j.Method, j.Swapped, f)
	}
	want := map[string][]string{
		"c": {"c.cust", "c.segment", "c.credit"},
		"s": {"s.cust", "s.amount"},
	}
	if got := exchangeChildren(root); !reflect.DeepEqual(got, want) {
		t.Fatalf("exchange children = %v, want %v\n%s", got, want, f)
	}
	if !strings.Contains(f, "Project(s.cust, s.amount)") {
		t.Errorf("narrowing Project not rendered with column names:\n%s", f)
	}
	for _, side := range []struct {
		child plan.Node
		keys  []int
		want  string
	}{{j.Left, j.LeftKeys, "c.cust"}, {j.Right, j.RightKeys, "s.cust"}} {
		x := side.child.(*plan.Exchange)
		if got := names(x.Schema(), x.Part.Keys); !reflect.DeepEqual(got, []string{side.want}) {
			t.Errorf("exchange keys resolve to %v, want %s", got, side.want)
		}
		if got := names(x.Schema(), side.keys); !reflect.DeepEqual(got, []string{side.want}) {
			t.Errorf("join keys resolve to %v, want %s", got, side.want)
		}
	}
	wantOut := []string{"s.cust", "s.amount", "c.cust", "c.segment", "c.credit"}
	if got := names(j.Out, []int{0, 1, 2, 3, 4}); j.Out.Len() != 5 || !reflect.DeepEqual(got, wantOut) {
		t.Errorf("join Out = %s, want %v", j.Out, wantOut)
	}
	if got := j.Residual.String(); got != "s.amount > c.credit" {
		t.Errorf("residual renders %q", got)
	}
	if got := names(j.Out, expr.Columns(j.Residual)); !reflect.DeepEqual(got, []string{"s.amount", "c.credit"}) {
		t.Errorf("residual reads %v", got)
	}
	if got := names(j.Out, agg.GroupBy); !reflect.DeepEqual(got, []string{"c.segment"}) {
		t.Errorf("group-by resolves to %v", got)
	}
	if got := names(j.Out, []int{agg.Specs[1].Col}); agg.Specs[0].Col != -1 || !reflect.DeepEqual(got, []string{"s.amount"}) {
		t.Errorf("aggregate specs = %+v", agg.Specs)
	}
	// Remapping works on copies: the original spec slice and residual
	// expression are untouched.
	if origSpecs[1].Col != 3 || expr.Columns(residual)[0] != 3 || expr.Columns(residual)[1] != 7 {
		t.Errorf("shared spec or residual mutated: specs %+v residual cols %v", origSpecs, expr.Columns(residual))
	}
	if !reflect.DeepEqual(root.Cols, []int{2}) {
		t.Errorf("sort above the aggregate remapped to %v", root.Cols)
	}
}

// TestPruneColumnsSortBelowProject: an ORDER BY column the select list
// drops survives the exchange and the Sort's column is remapped.
func TestPruneColumnsSortBelowProject(t *testing.T) {
	c := pruneCatalog(t)
	s, cu := aliasScan(t, c, "sales", "s"), aliasScan(t, c, "cust", "c")
	j := &plan.Join{Left: s, Right: cu, LeftKeys: []int{1}, RightKeys: []int{0}, Out: s.Out.Concat(cu.Out)}
	srt := &plan.Sort{Child: j, Cols: []int{0}, Desc: []bool{true}} // s.id
	seg := expr.NewColIdx(6, value.KindString)
	seg.Name = "c.segment"
	root := &plan.Project{Child: srt, Exprs: []expr.Expr{seg}, Names: []string{"c.segment"},
		Out: value.MustSchema("c.segment", "VARCHAR")}

	New(c, AllRules()).Optimize(root)
	f := plan.Format(root)
	if j.Method != plan.JoinRepartition {
		t.Fatalf("join method %v\n%s", j.Method, f)
	}
	if got := names(j.Out, srt.Cols); !reflect.DeepEqual(got, []string{"s.id"}) {
		t.Errorf("sort column resolves to %v\n%s", got, f)
	}
	if got := names(j.Out, expr.Columns(root.Exprs[0])); !reflect.DeepEqual(got, []string{"c.segment"}) {
		t.Errorf("projection reads %v\n%s", got, f)
	}
	if seg.Index != 6 {
		t.Errorf("shared projection expression remapped in place to %d", seg.Index)
	}
	if j.Out.Len() != 4 {
		t.Errorf("join Out = %s, want s.id s.cust c.cust c.segment", j.Out)
	}
}

// TestPruneColumnsLeavesUnexchangedPlans: plans without an Exchange —
// here a colocated join and a pushdown aggregate over a bare scan — and
// plans optimized without the Parallel group keep their shape, with no
// narrowing Project anywhere.
func TestPruneColumnsLeavesUnexchangedPlans(t *testing.T) {
	c := testCatalog(t)
	a, b := scan(t, c, "emp"), scan(t, c, "emp")
	colo := &plan.Project{Child: &plan.Join{Left: a, Right: b, LeftKeys: []int{0}, RightKeys: []int{0},
		Out: a.Out.Concat(b.Out)}, Exprs: []expr.Expr{expr.NewColIdx(1, value.KindString)},
		Names: []string{"dept"}, Out: value.MustSchema("dept", "VARCHAR")}
	agg := &plan.Aggregate{Child: scan(t, c, "emp"), GroupBy: []int{1},
		Specs: []algebra.AggSpec{{Func: algebra.Count, Col: -1, As: "n"}},
		Out:   value.MustSchema("dept", "VARCHAR", "n", "INT")}
	noPar := Options{Pushdown: true, JoinOrder: true, CSE: true, PointProbe: true}
	x, y := scan(t, c, "emp"), scan(t, c, "emp")
	central := &plan.Join{Left: x, Right: y, LeftKeys: []int{2}, RightKeys: []int{2}, Out: x.Out.Concat(y.Out)}
	for _, tc := range []struct {
		root plan.Node
		opts Options
	}{{colo, AllRules()}, {agg, AllRules()}, {central, noPar}} {
		root := New(c, tc.opts).Optimize(tc.root)
		plan.Walk(root, func(n plan.Node) {
			if p, ok := n.(*plan.Project); ok && p != colo {
				t.Errorf("pruning inserted a Project:\n%s", plan.Format(root))
			}
		})
	}
	if central.Out.Len() != 6 || agg.GroupBy[0] != 1 {
		t.Errorf("unexchanged plan changed: join Out %s, group-by %v", central.Out, agg.GroupBy)
	}
}
