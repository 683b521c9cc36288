package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wire"
)

// data holds the generated tables a workload loads; a nil field is a
// table the workload does not use.
type data struct {
	acct  *acctData
	sales *salesData
}

// table is one generated table, ready to load.
type table struct {
	name   string
	schema *value.Schema
	frags  int
	rows   []value.Tuple
}

// tables generates the rows of every table d holds.
func (d *data) tables() []table {
	var ts []table
	if d.acct != nil {
		ts = append(ts, table{"acct", acctSchema, fragments, d.acct.tuples()})
	}
	if d.sales != nil {
		ts = append(ts, table{"sales", salesSchema, fragments, d.sales.salesTuples()}, table{"cust", custSchema, 2, d.sales.custTuples()})
	}
	return ts
}

var (
	acctSchema  = value.MustSchema("id", "INT", "region", "VARCHAR", "balance", "INT")
	salesSchema = value.MustSchema("id", "INT", "cust", "INT", "region", "VARCHAR", "product", "INT", "amount", "INT", "day", "INT")
	custSchema  = value.MustSchema("cust", "INT", "segment", "VARCHAR")
)

// load creates and fills the tables.
func load(eng *core.Engine, ts []table) error {
	for _, t := range ts {
		if err := eng.CreateTable(t.name, t.schema, &fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: t.frags}, []int{0}); err != nil {
			return fmt.Errorf("create %s: %w", t.name, err)
		}
		if err := eng.LoadTable(t.name, t.rows); err != nil {
			return fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	return nil
}

// system is an engine served on a loopback TCP port.
type system struct {
	eng       *core.Engine
	srv       *server.Server
	addr      string
	serveDone chan struct{}
}

// boot starts an engine with the default configuration, loads ts and
// serves it.
func boot(ts []table) (*system, error) {
	eng, err := core.New(core.Config{NumPEs: numPEs})
	if err != nil {
		return nil, err
	}
	if err := load(eng, ts); err != nil {
		eng.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: eng, MaxConns: 8})
	if err != nil {
		eng.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &system{eng: eng, srv: srv, addr: l.Addr().String(), serveDone: make(chan struct{})}
	go func() {
		defer close(s.serveDone)
		if err := srv.Serve(l); err != nil && !errors.Is(err, server.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve:", err)
		}
	}()
	return s, nil
}

// close stops the server, waits for it to exit, and stops the engine.
func (s *system) close() {
	s.srv.Close()
	<-s.serveDone
	s.eng.Close()
}

// dial opens n connections.
func (s *system) dial(n int) ([]*client.Client, error) {
	var cs []*client.Client
	for i := 0; i < n; i++ {
		c, err := client.Dial(s.addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// recorder collects one worker's outcomes; each worker owns one, so
// recording takes no lock.
type recorder struct {
	lat       [nClasses][]time.Duration
	attempted int
	failed    int
	wrong     int // answers that failed a check (also counted in failed)
	transfers int
	aborts    int // retryable aborts: not failures, and no ledger effect
	led       ledger
	errs      []string

	// Traced runs sample replies and statement texts for the wire and
	// sqlparse probes.
	sampleEvery int
	replies     []*wire.Result
	texts       []string
}

func (r *recorder) fail(o *op, wrongAnswer bool, err error) {
	r.failed++
	if wrongAnswer {
		r.wrong++
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("stmt %d (%s): %v", o.id, o.sql[0], err))
	}
}

// all returns every recorded latency, whatever its class.
func (r *recorder) all() []time.Duration {
	var out []time.Duration
	for _, ls := range r.lat {
		out = append(out, ls...)
	}
	return out
}

func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.transfers += o.transfers
	r.aborts += o.aborts
	r.led.rows += o.led.rows
	r.led.sum += o.led.sum
	r.errs = append(r.errs, o.errs...)
	r.replies = append(r.replies, o.replies...)
	r.texts = append(r.texts, o.texts...)
}

// worker runs statements on one connection.
type worker struct {
	c   *client.Client
	d   *data
	rec *recorder
	tr  *tracer
}

// run executes one logical statement, checks its answer and records the
// outcome; the caller records its latency.
func (w *worker) run(o *op) {
	w.rec.attempted++
	sp := w.tr.begin("stmt."+classNames[o.kind.class()], o.id)
	defer w.tr.end(sp)
	sample := w.rec.sampleEvery > 0 && int(o.id)%w.rec.sampleEvery == 0
	if sample {
		w.rec.texts = append(w.rec.texts, o.sql[0])
	}
	switch o.kind {
	case opPoint, opScan:
		rel, err := w.query(o.sql[0], o.id)
		if err != nil {
			w.rec.fail(o, false, err)
			return
		}
		if sample {
			w.rec.replies = append(w.rec.replies, &wire.Result{Rel: rel})
		}
		switch {
		case o.kind == opPoint:
			err = w.d.acct.checkPoint(o.k, rel)
		case o.shape >= shAcctAgg:
			err = w.d.acct.checkScan(o.shape, o.lit, rel)
		default:
			err = w.d.sales.checkScan(o.shape, o.lit, rel)
		}
		if err != nil {
			w.rec.fail(o, true, err)
		}
	case opUpdate:
		res, err := w.exec(o.sql[0], o.id)
		if w.settle(o, res, err) {
			w.rec.led.sum += o.delta
			if sample {
				w.rec.replies = append(w.rec.replies, res)
			}
		}
	case opInsDel:
		res, err := w.exec(o.sql[0], o.id)
		if !w.settle(o, res, err) {
			return
		}
		// The row is in; the ledger carries it until the DELETE lands.
		// Retry a retryable DELETE so the private row cannot linger.
		w.rec.led.rows++
		w.rec.led.sum += o.delta
		for try := 0; ; try++ {
			res, err = w.exec(o.sql[1], o.id)
			if !client.IsRetryable(err) || try == 100 {
				break
			}
		}
		if w.settle(o, res, err) {
			w.rec.led.rows--
			w.rec.led.sum -= o.delta
		}
	case opTransfer:
		w.rec.transfers++
		w.transfer(o)
	}
}

// settle classifies a write's reply: true when it was acknowledged and
// touched exactly one row.
func (w *worker) settle(o *op, res *wire.Result, err error) bool {
	switch {
	case client.IsRetryable(err):
		w.rec.aborts++
	case err != nil:
		w.rec.fail(o, false, err)
	case res.Affected != 1:
		w.rec.fail(o, true, fmt.Errorf("affected %d rows, want 1", res.Affected))
	default:
		return true
	}
	return false
}

// transfer moves o.delta from o.k to o.k2 in one transaction. Its
// effect on SUM(balance) is zero whether it commits or aborts.
func (w *worker) transfer(o *op) {
	sp := w.tr.begin("client.Begin", o.id)
	err := w.c.Begin()
	w.tr.end(sp)
	if err != nil {
		w.settle(o, nil, err)
		return
	}
	for _, sql := range o.sql[:2] {
		res, err := w.exec(sql, o.id)
		if !w.settle(o, res, err) {
			sp := w.tr.begin("client.Rollback", o.id)
			_ = w.c.Rollback() // the failure is already recorded; a rollback error adds nothing
			w.tr.end(sp)
			return
		}
	}
	sp = w.tr.begin("client.Commit", o.id)
	err = w.c.Commit()
	w.tr.end(sp)
	if err != nil {
		w.settle(o, nil, err)
	}
}

func (w *worker) query(sql string, id int64) (*value.Relation, error) {
	sp := w.tr.begin("client.Query", id)
	defer w.tr.end(sp)
	return w.c.Query(sql)
}

func (w *worker) exec(sql string, id int64) (*wire.Result, error) {
	sp := w.tr.begin("client.Exec", id)
	defer w.tr.end(sp)
	return w.c.Exec(sql)
}

// closedLoop runs statements back to back until the deadline.
func (w *worker) closedLoop(st *stream, until time.Time) {
	for time.Now().Before(until) {
		o := st.next()
		start := time.Now()
		w.run(&o)
		w.rec.lat[o.kind.class()] = append(w.rec.lat[o.kind.class()], time.Since(start))
	}
}

type job struct {
	o   op
	due time.Time
}

// openLoop dispatches st's statements at a fixed rate for dur over the
// workers' connections, whoever is free first. Latency runs from the
// statement's due time, so a stall also delays the statements behind
// it. It returns how late the generator emitted each statement.
func openLoop(ws []*worker, st *stream, rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	// One second of statements: a backlog that deep already makes the
	// generator late and the run invalid; blocking beyond it only
	// stretches the lag.
	jobs := make(chan job, int(rate))
	done := make(chan struct{})
	for _, w := range ws {
		go func(w *worker) {
			defer func() { done <- struct{}{} }()
			for j := range jobs {
				w.run(&j.o)
				c := j.o.kind.class()
				w.rec.lat[c] = append(w.rec.lat[c], time.Since(j.due))
			}
		}(w)
	}
	// time.Sleep wakes on the runtime's timer, about 1 ms late on
	// Linux, which at these rates would send statements in bursts; a
	// nanosleep on a locked thread wakes within ~60 us.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	lags := make([]time.Duration, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * 1e9 / rate))
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) // EINTR only wakes us early; the lag shows it
		}
		lags = append(lags, time.Since(due))
		jobs <- job{o: st.next(), due: due}
	}
	close(jobs)
	for range ws {
		<-done
	}
	return lags
}
