package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a module's public function, recorded by
// the benchmark around the call (the program itself is not
// instrumented). Times are nanoseconds since the tracer's epoch; parent
// indexes the same tracer's spans, -1 for a root.
type span struct {
	name       string
	start, end int64
	parent     int32
	stmt       int64
}

// tracer records spans for one goroutine, so recording takes no lock. A
// nil *tracer records nothing: untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string, stmt int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, stmt: stmt})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(spans, children[i], s.start, s.end)
	}
	return self
}

// covered measures the union of the given spans' intervals clipped to
// [lo, hi].
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].start, lo), min(spans[id].end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for k, x := range iv {
		switch {
		case k == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// layerStats is the reduction of every span with one name.
type layerStats struct {
	name  string
	count int
	self  []float64 // sorted self times, microseconds
	total float64   // summed self time, milliseconds
}

// reduce groups the spans of all tracers by name and sorts each group's
// self times.
func reduce(tracers []*tracer) map[string]*layerStats {
	out := map[string]*layerStats{}
	for _, t := range tracers {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			ls := out[s.name]
			if ls == nil {
				ls = &layerStats{name: s.name}
				out[s.name] = ls
			}
			ls.count++
			ls.self = append(ls.self, float64(self[i])/1e3)
			ls.total += float64(self[i]) / 1e6
		}
	}
	for _, ls := range out {
		sort.Float64s(ls.self)
	}
	return out
}

// p50 returns the median self time of the named spans in microseconds;
// it fails when there are too few samples for a reportable median.
func (ls *layerStats) p50() (float64, error) {
	v, ok := percentile(ls.self, 0.5)
	if !ok {
		return 0, fmt.Errorf("span %s: %d samples, too few for a p50", ls.name, ls.count)
	}
	return v, nil
}

// writeSpans writes every span as one tab-separated line: tracer,
// span id, parent id, statement id, name, start ns, end ns, self ns.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer\tspan\tparent\tstmt\tname\tstart_ns\tend_ns\tself_ns")
	for ti, t := range tracers {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", ti, i, s.parent, s.stmt, s.name, s.start, s.end, self[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
