package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/client"
	"repro/internal/expr"
	"repro/internal/machine"
	"repro/internal/ofm"
	"repro/internal/sqlparse"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wire"
)

// Probe sizes: enough samples that each reported median has at least
// minBeyond samples above it.
const (
	probePoints  = 2000 // point SELECTs, over TCP and in process each
	probeWrites  = 1000 // UPDATEs, over TCP and in process each
	probeCommits = 200
	probeShapes  = 24 // executions of each analytics shape
	probeReps    = 20 // kernel and prepare repetitions
	probePasses  = 3  // passes over the sampled replies and texts
)

// probeResult carries the probe figures that are not span reductions.
type probeResult struct {
	replyBytes  float64 // mean encoded reply size
	logPerWrite float64 // WAL bytes per committed write
	vectorized  float64 // scan shapes whose EXPLAIN says vectorized
	rowsPerOFM  float64 // visible rows in the standalone fragment
	builtPerRow float64 // column-cache bytes built per visible row
}

// probeLayers times calls into each module's public functions, each
// call wrapped in a span on tr. Replies and statement texts come from
// the traced phase's samples in rec; the rest runs on a twin engine
// loaded from the same seed with all three tables, and on a standalone
// one-fragment manager, so every workload reports the same layers.
func probeLayers(tr *tracer, seed int64, rec *recorder) (*probeResult, error) {
	pr := &probeResult{}
	if err := probeWire(tr, rec, pr); err != nil {
		return nil, err
	}
	if err := probeParse(tr, rec); err != nil {
		return nil, err
	}
	d := &data{acct: genAcct(seed), sales: genSales(seed)}
	if err := probeEngine(tr, seed, d, pr); err != nil {
		return nil, err
	}
	if err := probeFragment(tr, d.sales, pr); err != nil {
		return nil, err
	}
	return pr, nil
}

func probeWire(tr *tracer, rec *recorder, pr *probeResult) error {
	if len(rec.replies) < 2*minBeyond {
		return fmt.Errorf("wire probe: %d sampled replies, too few", len(rec.replies))
	}
	var buf []byte
	var bytes int
	for pass := 0; pass < probePasses; pass++ {
		for _, r := range rec.replies {
			sp := tr.begin("wire.AppendResult", 0)
			buf = wire.AppendResult(buf[:0], r)
			tr.end(sp)
			if pass == 0 {
				bytes += len(buf)
			}
			sp = tr.begin("wire.DecodeResult", 0)
			_, err := wire.DecodeResult(buf)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("wire probe: %w", err)
			}
		}
	}
	pr.replyBytes = float64(bytes) / float64(len(rec.replies))
	return nil
}

func probeParse(tr *tracer, rec *recorder) error {
	if len(rec.texts) < 2*minBeyond {
		return fmt.Errorf("sqlparse probe: %d sampled statements, too few", len(rec.texts))
	}
	for pass := 0; pass < probePasses; pass++ {
		for _, sql := range rec.texts {
			sp := tr.begin("sqlparse.Normalize", 0)
			_, _, ok := sqlparse.Normalize(sql)
			tr.end(sp)
			if !ok {
				return fmt.Errorf("sqlparse probe: Normalize declined %q", sql)
			}
			sp = tr.begin("sqlparse.Parse", 0)
			_, err := sqlparse.Parse(sql)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("sqlparse probe: %w", err)
			}
		}
	}
	return nil
}

// probeEngine runs statements on the twin engine: the same statements
// over TCP and in process (the difference is the front door), COMMIT in
// process, every analytics shape, Prepare and EXPLAIN.
func probeEngine(tr *tracer, seed int64, d *data, pr *probeResult) error {
	sys, err := boot(d.tables())
	if err != nil {
		return fmt.Errorf("twin engine: %w", err)
	}
	defer sys.close()
	c, err := client.Dial(sys.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	s := sys.eng.NewSession()
	defer s.Close()

	points := newStream(seed, 200, mix{point: 100}, nil)
	for i := 0; i < probePoints; i++ {
		o := points.next()
		sp := tr.begin("client.Query.point", o.id)
		rel, err := c.Query(o.sql[0])
		tr.end(sp)
		if err == nil {
			err = d.acct.checkPoint(o.k, rel)
		}
		if err != nil {
			return fmt.Errorf("probe point over TCP: %w", err)
		}
		sp = tr.begin("core.Session.Exec.point", o.id)
		res, err := s.Exec(o.sql[0])
		tr.end(sp)
		if err == nil {
			err = d.acct.checkPoint(o.k, res.Rel)
		}
		if err != nil {
			return fmt.Errorf("probe point in process: %w", err)
		}
	}

	log0, err := sys.eng.LogBytes("acct")
	if err != nil {
		return err
	}
	writes := newStream(seed, 201, mix{update: 100}, nil)
	for i := 0; i < probeWrites; i++ {
		o := writes.next()
		sp := tr.begin("client.Exec.write", o.id)
		wr, err := c.Exec(o.sql[0])
		tr.end(sp)
		if err == nil && wr.Affected != 1 {
			err = fmt.Errorf("affected %d rows", wr.Affected)
		}
		if err != nil {
			return fmt.Errorf("probe write over TCP: %w", err)
		}
		o = writes.next()
		sp = tr.begin("core.Session.Exec.write", o.id)
		res, err := s.Exec(o.sql[0])
		tr.end(sp)
		if err == nil && res.Affected != 1 {
			err = fmt.Errorf("affected %d rows", res.Affected)
		}
		if err != nil {
			return fmt.Errorf("probe write in process: %w", err)
		}
	}
	log1, err := sys.eng.LogBytes("acct")
	if err != nil {
		return err
	}
	pr.logPerWrite = float64(log1-log0) / float64(2*probeWrites)

	for i := 0; i < probeCommits; i++ {
		o := writes.next()
		if _, err := s.Exec("BEGIN"); err != nil {
			return fmt.Errorf("probe commit: %w", err)
		}
		if _, err := s.Exec(o.sql[0]); err != nil {
			return fmt.Errorf("probe commit: %w", err)
		}
		sp := tr.begin("core.Session.Exec.COMMIT", o.id)
		_, err := s.Exec("COMMIT")
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe commit: %w", err)
		}
	}

	lits := newStream(seed, 202, scanMix, nil)
	for _, sh := range []int{shAggLow, shAggHigh, shFilter1, shCount50, shJoinAgg} {
		for i := 0; i < probeShapes; i++ {
			lit := shapeLit(lits.r, sh)
			sp := tr.begin("core.Session.Exec."+shapeNames[sh], 0)
			res, err := s.Exec(shapeSQL(sh, lit))
			tr.end(sp)
			if err == nil {
				err = d.sales.checkScan(sh, lit, res.Rel)
			}
			if err != nil {
				return fmt.Errorf("probe %s: %w", shapeNames[sh], err)
			}
		}
	}

	texts := []string{points.next().sql[0], writes.next().sql[0]}
	vec := 0
	for sh := 0; sh < nShapes; sh++ {
		sql := shapeSQL(sh, shapeLit(lits.r, sh))
		texts = append(texts, sql)
		res, err := s.Exec("EXPLAIN " + sql)
		if err != nil {
			return fmt.Errorf("probe EXPLAIN %s: %w", shapeNames[sh], err)
		}
		if strings.Contains(res.Rel.String(), "execution: vectorized") {
			vec++
		}
	}
	pr.vectorized = float64(vec) / float64(nShapes)
	for i := 0; i < probeReps; i++ {
		for _, sql := range texts {
			sp := tr.begin("core.Session.Prepare", 0)
			_, err := s.Prepare(sql)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("probe Prepare: %w", err)
			}
		}
	}
	return nil
}

// probeFragment times one fragment's manager and the batch kernels on
// batches it returns: a standalone ofm.New holding every eighth sales
// row, and one holding all of cust for the join's build side.
func probeFragment(tr *tracer, s *salesData, pr *probeResult) error {
	m, err := machine.New(machine.Config{NumPEs: 2})
	if err != nil {
		return err
	}
	newOFM := func(name string, schema *value.Schema, pe int, rows []value.Tuple) (*ofm.OFM, error) {
		o, err := ofm.New(ofm.Config{Name: name, Schema: schema, PE: m.PE(pe), Kind: ofm.Transient, Compiled: true})
		if err != nil {
			return nil, err
		}
		if err := o.Load(rows); err != nil {
			return nil, err
		}
		if _, err := o.Store().CreateHashIndex("pk", []int{0}); err != nil {
			return nil, err
		}
		return o, nil
	}
	all := s.salesTuples()
	var frag []value.Tuple
	for i := 0; i < len(all); i += fragments {
		frag = append(frag, all[i])
	}
	o, err := newOFM("sales#probe", salesSchema, 0, frag)
	if err != nil {
		return err
	}
	co, err := newOFM("cust#probe", custSchema, 1, s.custTuples())
	if err != nil {
		return err
	}
	// The timed scans filter half the rows in the OFM, as a pushed-down
	// filter does; the batches fed to the kernels are unfiltered.
	half := expr.NewCmp(expr.LT, expr.NewCol("amount"), expr.NewConst(value.NewInt(amounts/2)))
	scanWhere := func(o *ofm.OFM, name string, pred expr.Expr) (*value.Batch, int64, error) {
		sp := tr.begin(name, 0)
		b, built, err := o.ScanBatch(ofm.Latest, pred, nil)
		tr.end(sp)
		if err == nil && b == nil {
			err = fmt.Errorf("ScanBatch declined")
		}
		return b, built, err
	}
	scan := func(o *ofm.OFM, name string) (*value.Batch, int64, error) { return scanWhere(o, name, nil) }
	b, _, err := scan(o, "ofm.ScanBatch.first")
	if err != nil {
		return err
	}
	pr.rowsPerOFM = float64(b.Len())
	for i := 0; i < probeReps; i++ {
		if _, _, err := scanWhere(o, "ofm.ScanBatch.warm", half); err != nil {
			return err
		}
	}

	mgr := txn.NewManager()
	var built int64
	for i := 0; i < probeReps; i++ {
		id := int64(i * fragments)
		pred := expr.NewCmp(expr.EQ, expr.NewCol("id"), expr.NewConst(value.NewInt(id)))
		set := map[int]expr.Expr{4: expr.NewConst(value.NewInt(int64(s.amount[id])))}
		sp := tr.begin("ofm.UpdateTx+Commit", 0)
		tx := mgr.Begin()
		tx.Enlist(o)
		n, err := o.UpdateTx(tx.ID(), pred, set, ofm.Latest)
		if err == nil {
			err = tx.Commit()
		}
		tr.end(sp)
		if err == nil && n != 1 {
			err = fmt.Errorf("updated %d rows", n)
		}
		if err != nil {
			return fmt.Errorf("probe update: %w", err)
		}
		_, b, err := scanWhere(o, "ofm.ScanBatch.build", half)
		if err != nil {
			return err
		}
		built += b
	}
	pr.builtPerRow = float64(built) / float64(probeReps) / pr.rowsPerOFM

	for i := 0; i < probePoints; i++ {
		key := value.NewInt(int64((i * 7919 % (salesRows / fragments)) * fragments))
		sp := tr.begin("ofm.ProbeEq", 0)
		rel, err := o.ProbeEq(ofm.Latest, 0, key, nil)
		tr.end(sp)
		if err == nil && rel.Len() != 1 {
			err = fmt.Errorf("probe of %v returned %d rows", key, rel.Len())
		}
		if err != nil {
			return fmt.Errorf("probe ProbeEq: %w", err)
		}
	}

	b, _, err = scan(o, "ofm.ScanBatch.kernels")
	if err != nil {
		return err
	}
	cb, _, err := scan(co, "ofm.ScanBatch.cust")
	if err != nil {
		return err
	}
	count := algebra.AggSpec{Func: algebra.Count, Col: -1, As: "n"}
	sum := algebra.AggSpec{Func: algebra.Sum, Col: 4, As: "total"}
	amount := expr.NewCol("amount")
	lit := func(v int) expr.Expr { return expr.NewConst(value.NewInt(int64(v))) }
	f1, err := expr.CompileVecFilter(expr.NewAnd(expr.NewCmp(expr.GE, amount, lit(4000)), expr.NewCmp(expr.LT, amount, lit(4100))), salesSchema)
	if err != nil {
		return err
	}
	f50, err := expr.CompileVecFilter(expr.NewCmp(expr.LT, expr.NewCol("amount"), lit(amounts/2)), salesSchema)
	if err != nil {
		return err
	}
	kernels := []struct {
		name string
		run  func() error
	}{
		{"algebra.AggregateBatch.lowcard", func() error {
			_, _, err := algebra.AggregateBatch(b, []int{2}, []algebra.AggSpec{count, sum})
			return err
		}},
		{"algebra.AggregateBatch.highcard", func() error {
			_, _, err := algebra.AggregateBatch(b, []int{3}, []algebra.AggSpec{count, sum})
			return err
		}},
		{"algebra.HashJoinBatch", func() error {
			_, _, err := algebra.HashJoinBatch(b, cb, []int{1}, []int{0})
			return err
		}},
		{"algebra.SelectBatch.1pct", func() error {
			_, _, err := algebra.SelectBatch(b, f1)
			return err
		}},
		{"algebra.SelectBatch.50pct", func() error {
			_, _, err := algebra.SelectBatch(b, f50)
			return err
		}},
	}
	for _, k := range kernels {
		for i := 0; i < probeReps; i++ {
			sp := tr.begin(k.name, 0)
			err := k.run()
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("probe %s: %w", k.name, err)
			}
		}
	}
	return nil
}

// addLayerMetrics turns the reduced spans and probe figures into the
// per-layer metrics.
func addLayerMetrics(rep *report, layers map[string]*layerStats, pr *probeResult) error {
	get := func(name string) (*layerStats, error) {
		ls := layers[name]
		if ls == nil {
			return nil, fmt.Errorf("no spans named %s", name)
		}
		return ls, nil
	}
	p50 := func(name string) (float64, error) {
		ls, err := get(name)
		if err != nil {
			return 0, err
		}
		return ls.p50()
	}
	mean := func(name string) (float64, error) { // microseconds per call
		ls, err := get(name)
		if err != nil {
			return 0, err
		}
		return ls.total * 1e3 / float64(ls.count), nil
	}
	var firstErr error
	must := func(v float64, err error) float64 {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	for _, c := range []string{"point", "write"} {
		tcp := must(p50("client." + map[string]string{"point": "Query", "write": "Exec"}[c] + "." + c))
		inproc := must(p50("core.Session.Exec." + c))
		rep.add("server.frontdoor_p50_us."+c, tcp-inproc, "us", fmt.Sprintf("TCP p50 %.1f us minus in-process p50 %.1f us", tcp, inproc))
	}
	rep.add("wire.encode_us_per_reply", must(mean("wire.AppendResult")), "us", "")
	rep.add("wire.decode_us_per_reply", must(mean("wire.DecodeResult")), "us", "")
	rep.add("wire.reply_bytes_per_stmt", pr.replyBytes, "B", "sampled replies of the traced phase")
	rep.add("sqlparse.normalize_us", must(mean("sqlparse.Normalize")), "us", "statement texts of the traced phase")
	rep.add("sqlparse.parse_us", must(mean("sqlparse.Parse")), "us", "")
	rep.add("core.exec_p50_us.point", must(p50("core.Session.Exec.point")), "us", "twin engine, in process")
	rep.add("core.exec_p50_us.write", must(p50("core.Session.Exec.write")), "us", "")
	for _, sh := range []int{shAggLow, shAggHigh, shFilter1, shCount50, shJoinAgg} {
		rep.add("core.exec_p50_ms."+shapeNames[sh], must(p50("core.Session.Exec."+shapeNames[sh]))/1e3, "ms", "")
	}
	rep.add("core.prepare_us", must(mean("core.Session.Prepare")), "us", "plan-cache-miss cost")
	rep.add("core.vectorized_frac", pr.vectorized, "ratio", "scan shapes whose EXPLAIN says vectorized")
	rows := pr.rowsPerOFM
	rep.add("ofm.scan_warm_ns_per_row", must(mean("ofm.ScanBatch.warm"))*1e3/rows, "ns", fmt.Sprintf("%.0f visible rows", rows))
	rep.add("ofm.colcache_build_ns_per_row", must(mean("ofm.ScanBatch.build"))*1e3/rows, "ns", "ScanBatch after one committed write")
	rep.add("ofm.colcache_build_bytes_per_row", pr.builtPerRow, "B", "")
	rep.add("ofm.probe_us", must(mean("ofm.ProbeEq")), "us", "")
	rep.add("ofm.update_commit_us", must(mean("ofm.UpdateTx+Commit")), "us", "")
	perRow := func(span string) float64 { return must(mean(span)) * 1e3 / rows }
	rep.add("algebra.aggregate_ns_per_row.lowcard", perRow("algebra.AggregateBatch.lowcard"), "ns", "")
	rep.add("algebra.aggregate_ns_per_row.highcard", perRow("algebra.AggregateBatch.highcard"), "ns", "")
	rep.add("algebra.hashjoin_ns_per_row", perRow("algebra.HashJoinBatch"), "ns", "per probe-side row")
	rep.add("expr.vecfilter_ns_per_row.1pct", perRow("algebra.SelectBatch.1pct"), "ns", "CompileVecFilter kernel via SelectBatch")
	rep.add("expr.vecfilter_ns_per_row.50pct", perRow("algebra.SelectBatch.50pct"), "ns", "")
	rep.add("txn.commit_p50_us", must(p50("core.Session.Exec.COMMIT")), "us", "in-process COMMIT of one UPDATE")
	rep.add("wal.log_bytes_per_write", pr.logPerWrite, "B", "LogBytes delta over committed writes")
	return firstErr
}

func sortedLayers(layers map[string]*layerStats) []*layerStats {
	out := make([]*layerStats, 0, len(layers))
	for _, ls := range layers {
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
