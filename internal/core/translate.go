package core

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

// translateSelect turns a parsed SELECT into a logical plan over the
// catalog. The result is unoptimized; the knowledge-based optimizer
// rewrites it afterwards.
func (e *Engine) translateSelect(sel *sqlparse.Select) (plan.Node, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("core: SELECT without FROM")
	}

	// Build the base relations with alias-qualified schemas.
	type rel struct {
		node   plan.Node
		schema *value.Schema
	}
	var rels []rel
	addTable := func(tableName, alias string) error {
		t, err := e.lookupTable(tableName)
		if err != nil {
			return err
		}
		qual := alias
		if qual == "" {
			qual = t.def.Name
		}
		schema := t.def.Schema.Rename(qual)
		rels = append(rels, rel{
			node:   &plan.Scan{Table: t.def.Name, Out: schema},
			schema: schema,
		})
		return nil
	}
	for _, fi := range sel.From {
		if err := addTable(fi.Table, fi.Alias); err != nil {
			return nil, err
		}
	}

	// Explicit JOIN clauses chain onto the first relation group.
	type pendingJoin struct {
		on expr.Expr
	}
	var joins []pendingJoin
	for _, jc := range sel.Joins {
		if err := addTable(jc.Table, jc.Alias); err != nil {
			return nil, err
		}
		joins = append(joins, pendingJoin{on: jc.On})
	}

	// Fold everything into a left-deep join tree. WHERE conjuncts and ON
	// conditions are collected; equi-join conditions become join keys as
	// the tree is built, the rest is applied as a final Select.
	var conds []expr.Expr
	for _, j := range joins {
		conds = append(conds, expr.SplitConjuncts(j.on)...)
	}
	if sel.Where != nil {
		conds = append(conds, expr.SplitConjuncts(sel.Where)...)
	}

	cur := rels[0].node
	for i := 1; i < len(rels); i++ {
		right := rels[i]
		joined := cur.Schema().Concat(right.schema)
		// Find an equi-join condition usable for this join.
		var lkeys, rkeys []int
		var used []int
		for ci, c := range conds {
			cmp, ok := c.(*expr.Cmp)
			if !ok || cmp.Op != expr.EQ {
				continue
			}
			lcol, lok := cmp.L.(*expr.Col)
			rcol, rok := cmp.R.(*expr.Col)
			if !lok || !rok {
				continue
			}
			li := joined.Index(lcol.Name)
			ri := joined.Index(rcol.Name)
			if li < 0 || ri < 0 {
				continue
			}
			lw := cur.Schema().Len()
			// One side in cur, the other in right.
			switch {
			case li < lw && ri >= lw:
				lkeys = append(lkeys, li)
				rkeys = append(rkeys, ri-lw)
				used = append(used, ci)
			case ri < lw && li >= lw:
				lkeys = append(lkeys, ri)
				rkeys = append(rkeys, li-lw)
				used = append(used, ci)
			}
		}
		if len(lkeys) == 0 {
			return nil, fmt.Errorf("core: no equi-join condition between %s and %s (cross products are not supported)",
				cur.Schema(), right.schema)
		}
		// Remove the consumed conditions.
		kept := conds[:0:0]
		for ci, c := range conds {
			consumed := false
			for _, u := range used {
				if ci == u {
					consumed = true
					break
				}
			}
			if !consumed {
				kept = append(kept, c)
			}
		}
		conds = kept
		cur = &plan.Join{Left: cur, Right: right.node, LeftKeys: lkeys, RightKeys: rkeys, Out: joined}
	}

	// Remaining conditions become a Select over the join tree.
	if rest := expr.Conjoin(conds); rest != nil {
		if _, err := expr.Bind(rest, cur.Schema()); err != nil {
			return nil, err
		}
		cur = &plan.Select{Child: cur, Pred: rest}
	}

	// Aggregation?
	hasAgg := len(sel.GroupBy) > 0
	for _, item := range sel.Items {
		if item.Agg != nil {
			hasAgg = true
		}
	}
	// proj is the select-list projection of a non-aggregate query.
	var proj *plan.Project
	if hasAgg {
		node, err := e.translateAggregate(sel, cur)
		if err != nil {
			return nil, err
		}
		cur = node
	} else {
		node, err := translateProjection(sel, cur)
		if err != nil {
			return nil, err
		}
		proj, _ = node.(*plan.Project)
		cur = node
	}

	if sel.Distinct {
		cur = &plan.Distinct{Child: cur}
	}
	if len(sel.OrderBy) > 0 {
		sorted, err := orderBy(sel, cur)
		if err != nil && proj != nil && !sel.Distinct {
			// ORDER BY a column the select list drops: sort the
			// projection's input instead, and project the sorted rows.
			var below plan.Node
			if below, err = orderBy(sel, proj.Child); err == nil {
				proj.Child, sorted = below, cur
			}
		}
		if err != nil {
			return nil, err
		}
		cur = sorted
	}
	if sel.Limit >= 0 {
		cur = &plan.Limit{Child: cur, N: sel.Limit}
	}
	return cur, nil
}

// orderBy sorts n by the ORDER BY columns, resolved in n's output.
func orderBy(sel *sqlparse.Select, n plan.Node) (plan.Node, error) {
	var cols []int
	var desc []bool
	for _, ob := range sel.OrderBy {
		ix := n.Schema().Index(ob.Col)
		if ix < 0 {
			return nil, fmt.Errorf("core: ORDER BY column %q not in output %s", ob.Col, n.Schema())
		}
		cols = append(cols, ix)
		desc = append(desc, ob.Desc)
	}
	return &plan.Sort{Child: n, Cols: cols, Desc: desc}, nil
}

// translateProjection handles the non-aggregate select list.
func translateProjection(sel *sqlparse.Select, child plan.Node) (plan.Node, error) {
	// SELECT * alone: identity.
	if len(sel.Items) == 1 && sel.Items[0].Star {
		return child, nil
	}
	var exprs []expr.Expr
	var names []string
	var cols []value.Column
	for _, item := range sel.Items {
		if item.Star {
			for i := 0; i < child.Schema().Len(); i++ {
				c := child.Schema().Column(i)
				exprs = append(exprs, expr.NewColIdx(i, c.Kind))
				names = append(names, c.Name)
				cols = append(cols, c)
			}
			continue
		}
		k, err := expr.Bind(item.Expr, child.Schema())
		if err != nil {
			return nil, err
		}
		name := item.As
		if name == "" {
			name = item.Expr.String()
		}
		exprs = append(exprs, item.Expr)
		names = append(names, name)
		cols = append(cols, value.Column{Name: name, Kind: k})
	}
	return &plan.Project{Child: child, Exprs: exprs, Names: names, Out: value.NewSchema(cols...)}, nil
}

// translateAggregate builds the Aggregate node (plus HAVING filter and
// final projection ordering).
func (e *Engine) translateAggregate(sel *sqlparse.Select, child plan.Node) (plan.Node, error) {
	in := child.Schema()
	var groupBy []int
	for _, g := range sel.GroupBy {
		ix := in.Index(g)
		if ix < 0 {
			return nil, fmt.Errorf("core: GROUP BY column %q not found in %s", g, in)
		}
		groupBy = append(groupBy, ix)
	}

	// The aggregate's output: group columns then one column per agg item,
	// in select-list order. Non-agg select items must be group columns.
	var specs []algebra.AggSpec
	type outCol struct {
		fromGroup int // index into groupBy, or -1
		fromSpec  int // index into specs, or -1
		name      string
		kind      value.Kind
	}
	var outCols []outCol
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("core: SELECT * cannot be combined with aggregation")
		}
		if item.Agg != nil {
			fn, ok := algebra.ParseAggFunc(item.Agg.Func)
			if !ok {
				return nil, fmt.Errorf("core: unknown aggregate %s", item.Agg.Func)
			}
			col := -1
			kind := value.KindInt
			if !item.Agg.Star {
				c, ok := item.Agg.Arg.(*expr.Col)
				if !ok {
					return nil, fmt.Errorf("core: aggregate arguments must be plain columns, got %s", item.Agg.Arg)
				}
				col = in.Index(c.Name)
				if col < 0 {
					return nil, fmt.Errorf("core: aggregate column %q not found in %s", c.Name, in)
				}
				kind = in.Column(col).Kind
			} else if fn != algebra.Count {
				return nil, fmt.Errorf("core: %s(*) is not defined", item.Agg.Func)
			}
			name := item.As
			if name == "" {
				if item.Agg.Star {
					name = "COUNT(*)"
				} else {
					name = fmt.Sprintf("%s(%s)", item.Agg.Func, strings.ToLower(item.Agg.Arg.String()))
				}
			}
			specs = append(specs, algebra.AggSpec{Func: fn, Col: col, As: name})
			switch fn {
			case algebra.Count:
				kind = value.KindInt
			case algebra.Avg:
				kind = value.KindFloat
			}
			outCols = append(outCols, outCol{fromGroup: -1, fromSpec: len(specs) - 1, name: name, kind: kind})
			continue
		}
		// Plain item: must be a group-by column.
		c, ok := item.Expr.(*expr.Col)
		if !ok {
			return nil, fmt.Errorf("core: select item %s must be a grouping column or aggregate", item.Expr)
		}
		ix := in.Index(c.Name)
		gpos := -1
		for gi, g := range groupBy {
			if g == ix {
				gpos = gi
				break
			}
		}
		if ix < 0 || gpos < 0 {
			return nil, fmt.Errorf("core: column %q must appear in GROUP BY", c.Name)
		}
		name := item.As
		if name == "" {
			name = c.Name
		}
		outCols = append(outCols, outCol{fromGroup: gpos, fromSpec: -1, name: name, kind: in.Column(ix).Kind})
	}

	// The Aggregate node's raw output is groupBy columns then specs.
	aggCols := make([]value.Column, 0, len(groupBy)+len(specs))
	for _, g := range groupBy {
		aggCols = append(aggCols, in.Column(g))
	}
	for si, sp := range specs {
		kind := value.KindFloat
		switch sp.Func {
		case algebra.Count:
			kind = value.KindInt
		case algebra.Sum, algebra.Min, algebra.Max:
			if sp.Col >= 0 {
				kind = in.Column(sp.Col).Kind
			}
		}
		_ = si
		aggCols = append(aggCols, value.Column{Name: sp.As, Kind: kind})
	}
	agg := &plan.Aggregate{Child: child, GroupBy: groupBy, Specs: specs, Out: value.NewSchema(aggCols...)}

	var cur plan.Node = agg
	// HAVING filters the aggregate output.
	if sel.Having != nil {
		if _, err := expr.Bind(sel.Having, cur.Schema()); err != nil {
			return nil, err
		}
		cur = &plan.Select{Child: cur, Pred: sel.Having}
	}
	// Final projection reorders to the select-list order.
	var exprs []expr.Expr
	var names []string
	var finalCols []value.Column
	for _, oc := range outCols {
		var ix int
		if oc.fromGroup >= 0 {
			ix = oc.fromGroup
		} else {
			ix = len(groupBy) + oc.fromSpec
		}
		exprs = append(exprs, expr.NewColIdx(ix, oc.kind))
		names = append(names, oc.name)
		finalCols = append(finalCols, value.Column{Name: oc.name, Kind: oc.kind})
	}
	return &plan.Project{Child: cur, Exprs: exprs, Names: names, Out: value.NewSchema(finalCols...)}, nil
}
