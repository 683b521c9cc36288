// Command perfbench is the PRISMA reproduction's benchmark. It boots a
// 16-PE engine behind the TCP server in this process, drives one seeded
// workload (oltp, analytics or htap) through the client library over at
// most two connections, checks every answer, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload oltp --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, probes each layer, and reports the
// per-layer metrics. README.md in this directory defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/optimizer"
)

// Open-loop rates in statements per second.
const (
	oltpRate      = 8000 // ~35% of the closed-loop capacity of a 2-vCPU host
	htapWriteRate = 1000
	// maxGenLag bounds the generator's p99 lateness; beyond it the run
	// measured the generator, not the system, and reports no numbers.
	maxGenLag = 50 * time.Millisecond
	setups    = 5 // set-ups per untraced run; setup_s is their median
	windows   = 5 // an untraced run's timed phase, in consecutive windows
	// traceSegments alternate untraced and traced in a traced run.
	traceSegments = 4
)

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	extra     []metric // printed for reading, not part of the JSON result
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, note})
}

func (r *report) info(name string, v float64, unit, note string) {
	r.extra = append(r.extra, metric{name, v, unit, note})
}

func main() {
	workload := flag.String("workload", "", "oltp, analytics or htap")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload oltp|analytics|htap --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = runTraced(*workload, *seed, dur)
	} else {
		rep, err = runPlain(*workload, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range append(rep.metrics, rep.extra...) {
		fmt.Printf("%-40s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	out := map[string]any{"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed}
	ms := map[string]any{}
	for _, m := range rep.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloadSpec describes one workload: the tables it loads and its
// timed phase.
type workloadSpec struct {
	data  func(seed int64) *data
	warm  []warmStep
	timed func(ws []*worker, seed int64, lane int, dur time.Duration) *phase
}

// warmStep runs n statements of a mix on one connection during set-up;
// a scan step takes its shapes in turn, so every seed warms the same
// shapes the same number of times.
type warmStep struct {
	m      mix
	shapes []int
	n      int
}

var workloads = map[string]workloadSpec{
	"oltp": {
		data:  func(seed int64) *data { return &data{acct: genAcct(seed)} },
		warm:  []warmStep{{oltpMix, nil, 400}},
		timed: oltpPhase,
	},
	"analytics": {
		data:  func(seed int64) *data { return &data{sales: genSales(seed)} },
		warm:  []warmStep{{scanMix, []int{shAggLow, shAggHigh, shFilter1, shCount50, shJoinAgg}, 20}},
		timed: analyticsPhase,
	},
	"htap": {
		data:  func(seed int64) *data { return &data{acct: genAcct(seed)} },
		warm:  []warmStep{{writeMix, nil, 200}, {scanMix, []int{shAcctAgg, shAcctRange}, 8}},
		timed: htapPhase,
	},
}

// phase is the outcome of a workload's timed phase.
type phase struct {
	rec     recorder      // every statement, merged over workers
	latency *recorder     // the statements p50_ms / p99_ms are taken over
	closed  int           // statements completed by closed-loop connections
	elapsed time.Duration // how long the closed-loop connections ran
	lags    []time.Duration
}

// add accumulates another phase's outcome.
func (p *phase) add(o *phase) {
	p.rec.merge(&o.rec)
	p.closed += o.closed
	p.elapsed += o.elapsed
	p.lags = append(p.lags, o.lags...)
}

func newWorkers(d *data, cs []*client.Client, tracers []*tracer, sampleEvery int) []*worker {
	ws := make([]*worker, len(cs))
	for i, c := range cs {
		ws[i] = &worker{c: c, d: d, rec: &recorder{sampleEvery: sampleEvery}}
		if tracers != nil {
			ws[i].tr = tracers[i]
		}
	}
	return ws
}

// freshRecorders gives every worker an empty recorder and returns the
// old ones.
func freshRecorders(ws []*worker) []*recorder {
	old := make([]*recorder, len(ws))
	for i, w := range ws {
		old[i] = w.rec
		w.rec = &recorder{sampleEvery: w.rec.sampleEvery}
	}
	return old
}

func mergeInto(dst *recorder, rs ...*recorder) {
	for _, r := range rs {
		dst.merge(r)
	}
}

// runClosed runs each worker's stream in a closed loop until the
// deadline and returns the wall time the loop took.
func runClosed(ws []*worker, streams []*stream, dur time.Duration) time.Duration {
	start := time.Now()
	until := start.Add(dur)
	done := make(chan struct{})
	for i, w := range ws {
		go func(w *worker, st *stream) {
			defer func() { done <- struct{}{} }()
			w.closedLoop(st, until)
		}(w, streams[i])
	}
	for range ws {
		<-done
	}
	return time.Since(start)
}

// oltpPhase: latencies from an open loop at oltpRate over both
// connections, then throughput from a closed loop on the same two.
func oltpPhase(ws []*worker, seed int64, lane int, dur time.Duration) *phase {
	p := &phase{latency: &recorder{}}
	p.lags = openLoop(ws, newStream(seed, lane, oltpMix, nil), oltpRate, dur/2)
	open := freshRecorders(ws)
	mergeInto(p.latency, open...)
	streams := []*stream{newStream(seed, lane+1, oltpMix, nil), newStream(seed, lane+2, oltpMix, nil)}
	p.elapsed = runClosed(ws, streams, dur/2)
	closed := freshRecorders(ws)
	for _, r := range closed {
		p.closed += r.attempted
	}
	mergeInto(&p.rec, append(open, closed...)...)
	return p
}

// analyticsPhase: both connections run the five scan shapes closed-loop.
func analyticsPhase(ws []*worker, seed int64, lane int, dur time.Duration) *phase {
	shapes := []int{shAggLow, shAggHigh, shFilter1, shCount50, shJoinAgg}
	streams := []*stream{newStream(seed, lane, scanMix, shapes), newStream(seed, lane+1, scanMix, shapes)}
	p := &phase{}
	p.elapsed = runClosed(ws, streams, dur)
	rs := freshRecorders(ws)
	mergeInto(&p.rec, rs...)
	p.closed = p.rec.attempted
	p.latency = &p.rec
	return p
}

// htapPhase: one connection writes open-loop at htapWriteRate while the
// other scans acct closed-loop.
func htapPhase(ws []*worker, seed int64, lane int, dur time.Duration) *phase {
	p := &phase{}
	lagCh := make(chan []time.Duration, 1)
	go func() {
		lagCh <- openLoop(ws[:1], newStream(seed, lane, writeMix, nil), htapWriteRate, dur)
	}()
	p.elapsed = runClosed(ws[1:], []*stream{newStream(seed, lane+1, scanMix, []int{shAcctAgg, shAcctRange})}, dur)
	p.lags = <-lagCh
	rs := freshRecorders(ws)
	p.closed = rs[1].attempted
	mergeInto(&p.rec, rs...)
	p.latency = &p.rec
	return p
}

// setUp boots the engine, loads ts, starts the server, opens two
// connections and warms every statement shape the workload runs. The
// warm-up's outcomes (its writes move the ledger) go into warm.
func setUp(spec workloadSpec, d *data, ts []table, seed int64, warm *recorder) (*system, []*client.Client, error) {
	sys, err := boot(ts)
	if err != nil {
		return nil, nil, err
	}
	cs, err := sys.dial(2)
	if err != nil {
		sys.close()
		return nil, nil, err
	}
	w := &worker{c: cs[0], d: d, rec: warm}
	for i, step := range spec.warm {
		st := newStream(seed, 90+i, step.m, step.shapes)
		for k := 0; k < step.n; k++ {
			var o op
			if step.shapes != nil {
				o = st.scanOp(step.shapes[k%len(step.shapes)])
			} else {
				o = st.next()
			}
			w.run(&o)
		}
	}
	return sys, cs, nil
}

func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// runPlain is an untraced run: the end-to-end metrics.
func runPlain(name string, seed int64, dur time.Duration) (*report, error) {
	spec := workloads[name]
	d := spec.data(seed)
	var (
		sys     *system
		cs      []*client.Client
		warm    *recorder
		setupS  []float64
		heapRow float64
		rows    int
	)
	for i := 0; i < setups; i++ {
		if sys != nil {
			closeAll(cs)
			sys.close()
		}
		// The rows are generated outside the set-up time but after the
		// pre-load heap reading: the engine keeps them.
		before := heapInuse()
		ts := d.tables()
		rows = 0
		for _, t := range ts {
			rows += len(t.rows)
		}
		warm = &recorder{}
		start := time.Now()
		var err error
		sys, cs, err = setUp(spec, d, ts, seed, warm)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		heapRow = float64(int64(heapInuse())-int64(before)) / float64(rows)
	}
	defer sys.close()
	defer closeAll(cs)

	ws := newWorkers(d, cs, nil, 0)
	sim0 := sys.eng.Machine().MaxClock()
	var wins []*phase
	p := &phase{latency: &recorder{}}
	for i := 0; i < windows; i++ {
		w := spec.timed(ws, seed, 10*i, dur/windows)
		wins = append(wins, w)
		p.add(w)
		p.latency.merge(w.latency)
	}
	sim := sys.eng.Machine().MaxClock() - sim0

	rep := &report{}
	rep.add("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups", setups))
	if err := addEndToEnd(rep, wins, p, sim); err != nil {
		return nil, err
	}
	rep.add("heap_bytes_per_row", heapRow, "B/row", fmt.Sprintf("%d rows", rows))
	finish(rep, cs[0], d, seed, warm, p)
	return rep, nil
}

// addEndToEnd adds the timed phase's throughput, latency and simulated
// time, and prints the per-class latencies. Throughput and p50 are
// medians over the windows, so one disturbed window does not move them;
// p99 pools every window's samples.
func addEndToEnd(rep *report, wins []*phase, p *phase, sim time.Duration) error {
	var rates, p50s []float64
	for i, w := range wins {
		rates = append(rates, float64(w.closed)/w.elapsed.Seconds())
		v, ok := percentile(sortedMs(w.latency.all()), 0.5)
		if !ok {
			return fmt.Errorf("window %d: %d samples, too few for a p50", i, len(w.latency.all()))
		}
		p50s = append(p50s, v)
	}
	rep.add("throughput_sps", median(rates), "stmt/s",
		fmt.Sprintf("median of %d windows %s; %d statements closed-loop", len(wins), fmtList(rates, "%.1f"), p.closed))
	rep.add("p50_ms", median(p50s), "ms", fmt.Sprintf("median of windows %s; n=%d", fmtList(p50s, "%.3f"), len(p.latency.all())))
	all := sortedMs(p.latency.all())
	v, ok := percentile(all, 0.99)
	if !ok {
		return fmt.Errorf("p99_ms: %d samples, too few to report it", len(all))
	}
	rep.add("p99_ms", v, "ms", fmt.Sprintf("pooled over windows; n=%d", len(all)))
	for c, ls := range p.latency.lat {
		s := sortedMs(ls)
		for _, q := range []struct {
			name string
			p    float64
		}{{"p50_ms", 0.50}, {"p99_ms", 0.99}} {
			if v, ok := percentile(s, q.p); ok {
				rep.info(classNames[c]+"_"+q.name, v, "ms", fmt.Sprintf("pooled; n=%d", len(s)))
			}
		}
	}
	rep.add("sim_ms_per_stmt", float64(sim)/float64(time.Millisecond)/float64(p.rec.attempted), "ms",
		fmt.Sprintf("MaxClock delta %v over %d statements", sim, p.rec.attempted))
	if len(p.lags) > 0 {
		lag, ok := percentile(sortedMs(p.lags), 0.99)
		if !ok {
			return fmt.Errorf("generator lag: %d samples, too few for a p99", len(p.lags))
		}
		rep.info("bench.gen_lag_p99_ms", lag, "ms", fmt.Sprintf("n=%d, limit %v", len(p.lags), maxGenLag))
		if lag > float64(maxGenLag)/float64(time.Millisecond) {
			return fmt.Errorf("invalid run: open-loop generator p99 lag %.3f ms exceeds the %v limit", lag, maxGenLag)
		}
	}
	return nil
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// finish audits the final state (ledger or reference engine) over q and
// fills in the correctness fields.
func finish(rep *report, q querier, d *data, seed int64, warm *recorder, p *phase) {
	total := &recorder{}
	mergeInto(total, warm, &p.rec)
	var auditErr error
	if d.acct != nil {
		want := ledger{rows: acctRows + total.led.rows, sum: d.acct.sum + total.led.sum}
		auditErr = audit(q, want)
	} else {
		auditErr = compareReference(q, d, seed)
	}
	rep.attempted = p.rec.attempted
	rep.failed = p.rec.failed
	if auditErr != nil {
		rep.failed++
		total.errs = append(total.errs, auditErr.Error())
	}
	rep.correct = total.wrong == 0 && warm.failed == 0 && auditErr == nil
	rep.info("failed_frac", float64(rep.failed)/float64(rep.attempted), "ratio",
		fmt.Sprintf("%d of %d; warm-up failures %d", rep.failed, rep.attempted, warm.failed))
	if p.rec.transfers > 0 {
		rep.info("txn.abort_frac", float64(p.rec.aborts)/float64(p.rec.transfers), "ratio",
			fmt.Sprintf("%d retryable aborts, %d transfers", p.rec.aborts, p.rec.transfers))
	}
	for _, e := range total.errs {
		fmt.Fprintln(os.Stderr, "failure:", e)
	}
}

// compareReference runs each analytics shape once on the served engine
// and on a reference engine (row executor, no parallel plans) loaded
// with the same rows, and checks both against the generated answer.
func compareReference(q querier, d *data, seed int64) error {
	off := false
	opts := optimizer.AllRules()
	opts.Parallel = false
	ref, err := core.New(core.Config{NumPEs: numPEs, Vectorized: &off, Optimizer: &opts})
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := load(ref, d.tables()); err != nil {
		return err
	}
	rs := ref.NewSession()
	defer rs.Close()
	st := newStream(seed, 99, scanMix, nil)
	for _, sh := range []int{shAggLow, shAggHigh, shFilter1, shCount50, shJoinAgg} {
		lit := shapeLit(st.r, sh)
		sql := shapeSQL(sh, lit)
		got, err := q.Query(sql)
		if err != nil {
			return fmt.Errorf("reference check %s: %w", shapeNames[sh], err)
		}
		want, err := rs.Query(sql)
		if err != nil {
			return fmt.Errorf("reference engine %s: %w", shapeNames[sh], err)
		}
		if !got.SameBag(want) {
			return fmt.Errorf("%s: served engine and reference engine disagree (%d vs %d rows)", shapeNames[sh], got.Len(), want.Len())
		}
		if err := d.sales.checkScan(sh, lit, want); err != nil {
			return fmt.Errorf("reference engine %s: %w", shapeNames[sh], err)
		}
	}
	return nil
}

// runTraced is a traced run: the workload runs in alternating untraced
// and traced segments, each layer is probed, and the spans are reduced
// to self times. It reports the per-layer metrics.
func runTraced(name string, seed int64, dur time.Duration) (*report, error) {
	spec := workloads[name]
	d := spec.data(seed)
	warm := &recorder{}
	sys, cs, err := setUp(spec, d, d.tables(), seed, warm)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if sys != nil {
			closeAll(cs)
			sys.close()
		}
	}()

	// Untraced and traced segments alternate, so drift in the host's
	// speed during the run does not read as tracing overhead.
	epoch := time.Now()
	tracers := []*tracer{newTracer(epoch), newTracer(epoch)}
	m := sys.eng.Machine()
	var (
		plain, traced = &phase{}, &phase{}
		netB          int64
		work          time.Duration
		rt            runtimeSample
	)
	for seg := 0; seg < traceSegments; seg++ {
		lane := 10 * (seg + 1)
		if seg%2 == 0 {
			plain.add(spec.timed(newWorkers(d, cs, nil, 0), seed, lane, dur/traceSegments))
			continue
		}
		net0, work0 := m.NetBytes(), m.TotalClock()
		r0 := readRuntime()
		p := spec.timed(newWorkers(d, cs, tracers, 16), seed, lane, dur/traceSegments)
		r1 := readRuntime()
		netB += m.NetBytes() - net0
		work += m.TotalClock() - work0
		rt.add(r1, r0)
		traced.add(p)
	}
	stmts := float64(traced.rec.attempted)

	rep := &report{}
	full := &phase{}
	full.add(plain)
	full.add(traced)
	finish(rep, cs[0], d, seed, warm, full)
	closeAll(cs)
	sys.close()
	sys = nil

	probeTr := newTracer(epoch)
	probes, err := probeLayers(probeTr, seed, &traced.rec)
	if err != nil {
		return nil, err
	}
	tracers = append(tracers, probeTr)
	layers := reduce(tracers)
	if err := addLayerMetrics(rep, layers, probes); err != nil {
		return nil, err
	}
	rep.add("machine.net_bytes_per_stmt", float64(netB)/stmts, "B", "NetBytes delta over the traced segments")
	rep.add("machine.pe_work_ms_per_stmt", float64(work)/float64(time.Millisecond)/stmts, "ms", "TotalClock delta over the traced segments")
	rep.add("go.allocs_per_stmt", float64(rt.mallocs)/stmts, "count", "client and server share the process")
	rep.add("go.gc_cpu_frac", rt.gcCPU/rt.totalCPU, "ratio", "GC CPU over all available CPU, traced segments")
	plainRate := float64(plain.closed) / plain.elapsed.Seconds()
	tracedRate := float64(traced.closed) / traced.elapsed.Seconds()
	rep.add("bench.trace_overhead_frac", 1-tracedRate/plainRate, "ratio",
		fmt.Sprintf("closed-loop %.0f stmt/s untraced, %.0f traced", plainRate, tracedRate))
	for _, ls := range sortedLayers(layers) {
		if v, ok := percentile(ls.self, 0.5); ok {
			rep.info("span "+ls.name, v, "us", fmt.Sprintf("p50 self time; n=%d, total self %.1f ms", ls.count, ls.total))
		}
	}
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "spans-"+name+".tsv")
	if err := writeSpans(path, tracers); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Println("spans written to", path)
	return rep, nil
}

type runtimeSample struct {
	mallocs         uint64
	gcCPU, totalCPU float64
}

// add accumulates the change from r0 to r1.
func (s *runtimeSample) add(r1, r0 runtimeSample) {
	s.mallocs += r1.mallocs - r0.mallocs
	s.gcCPU += r1.gcCPU - r0.gcCPU
	s.totalCPU += r1.totalCPU - r0.totalCPU
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}
