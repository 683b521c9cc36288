package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

// batchRel builds a moderately sized relation with duplicate keys and
// NULLs for the columnar operator differentials.
func batchRel(n int, seed int64) *value.Relation {
	r := rand.New(rand.NewSource(seed))
	s := value.MustSchema("k", "INT", "tag", "VARCHAR", "v", "INT")
	rel := value.NewRelation(s)
	tags := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		k := value.NewInt(r.Int63n(int64(n / 4)))
		if r.Intn(20) == 0 {
			k = value.Null
		}
		v := value.NewInt(r.Int63n(1000))
		if r.Intn(15) == 0 {
			v = value.Null
		}
		rel.Append(value.NewTuple(k, value.NewString(tags[r.Intn(len(tags))]), v))
	}
	return rel
}

func toBatch(t *testing.T, rel *value.Relation) *value.Batch {
	t.Helper()
	b := value.NewBatchFrom(rel.Schema, rel.Tuples)
	if b == nil {
		t.Fatal("NewBatchFrom declined")
	}
	return b
}

// requireSameOrder asserts two relations are tuple-for-tuple identical —
// the columnar operators promise the row operators' output order, not
// just the same bag.
func requireSameOrder(t *testing.T, name string, got, want *value.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		if !value.EqualTuples(got.Tuples[i], want.Tuples[i]) {
			t.Fatalf("%s row %d: %v != %v", name, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

func TestSelectBatchMatchesSelect(t *testing.T) {
	rel := batchRel(500, 1)
	e := expr.NewAnd(
		expr.NewCmp(expr.GT, expr.NewCol("v"), expr.NewConst(value.NewInt(200))),
		expr.NewCmp(expr.NE, expr.NewCol("tag"), expr.NewConst(value.NewString("b"))))
	want, _, err := Select(rel, mustPred(t, expr.Clone(e), rel.Schema))
	if err != nil {
		t.Fatal(err)
	}
	vf, err := expr.CompileVecFilter(expr.Clone(e), rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := SelectBatch(toBatch(t, rel), vf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOrder(t, "select", out.Materialize(), want)
	if st.TuplesRead != rel.Len() || st.TuplesEmitted != want.Len() {
		t.Errorf("stats = %+v", st)
	}
	// Filtering an already-selected batch narrows further.
	vf2, err := expr.CompileVecFilter(
		expr.NewCmp(expr.LT, expr.NewCol("v"), expr.NewConst(value.NewInt(800))), rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := SelectBatch(out, vf2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range out2.Materialize().Tuples {
		if tup[2].IsNull() || tup[2].Int() <= 200 || tup[2].Int() >= 800 {
			t.Fatalf("narrowed selection kept %v", tup)
		}
	}
}

func TestProjectBatchMatchesProject(t *testing.T) {
	rel := batchRel(200, 2)
	want, _, err := Project(rel, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ProjectBatch(toBatch(t, rel), []int{2, 0}, rel.Schema.Project([]int{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	requireSameOrder(t, "project", out.Materialize(), want)
	if _, _, err := ProjectBatch(toBatch(t, rel), []int{5}, rel.Schema); err == nil {
		t.Error("out-of-range projection accepted")
	}
}

func TestHashJoinBatchMatchesHashJoin(t *testing.T) {
	l := batchRel(400, 3)
	r := batchRel(300, 4)
	for _, swap := range []bool{false, true} {
		ll, rr := l, r
		if swap { // exercise both build sides
			ll, rr = r, l
		}
		want, _, err := HashJoin(ll, rr, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := HashJoinBatch(toBatch(t, ll), toBatch(t, rr), []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		requireSameOrder(t, fmt.Sprintf("join swap=%v", swap), out.Materialize(), want)
		if st.TuplesEmitted != want.Len() {
			t.Errorf("swap=%v stats = %+v", swap, st)
		}
	}
	if _, _, err := HashJoinBatch(toBatch(t, l), toBatch(t, r), nil, nil); err == nil {
		t.Error("empty key list accepted")
	}
	if _, _, err := HashJoinBatch(toBatch(t, l), toBatch(t, r), []int{9}, []int{0}); err == nil {
		t.Error("out-of-range key accepted")
	}
}

func TestAggregateBatchMatchesAggregate(t *testing.T) {
	rel := batchRel(600, 5)
	cases := []struct {
		groupBy []int
		specs   []AggSpec
	}{
		{[]int{1}, []AggSpec{
			{Func: Count, Col: -1, As: "n"},
			{Func: Sum, Col: 2, As: "s"},
			{Func: Min, Col: 2, As: "lo"},
			{Func: Max, Col: 2, As: "hi"},
			{Func: Avg, Col: 2, As: "m"},
		}},
		{[]int{0, 1}, []AggSpec{{Func: Count, Col: 2}}}, // COUNT(v) skips NULLs; NULL group keys group together
		{nil, []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 2, As: "s"}}},
	}
	for ci, c := range cases {
		want, _, err := Aggregate(rel, c.groupBy, c.specs)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := AggregateBatch(toBatch(t, rel), c.groupBy, c.specs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Schema.String() != want.Schema.String() {
			t.Errorf("case %d: schema %s != %s", ci, got.Schema, want.Schema)
		}
		requireSameOrder(t, fmt.Sprintf("aggregate case %d", ci), got, want)
	}
	// Empty input, global aggregate: exactly one row, like the row path.
	empty := value.NewRelation(rel.Schema)
	want, _, err := Aggregate(empty, nil, cases[2].specs)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := AggregateBatch(toBatch(t, empty), nil, cases[2].specs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOrder(t, "empty global aggregate", got, want)
	if _, _, err := AggregateBatch(toBatch(t, rel), []int{7}, nil); err == nil {
		t.Error("out-of-range group column accepted")
	}
	if _, _, err := AggregateBatch(toBatch(t, rel), nil, []AggSpec{{Func: Sum, Col: -1}}); err == nil {
		t.Error("SUM(*) accepted")
	}
}

// TestSelectBatchAllocs pins the steady-state allocation budget of the
// hot filter kernel: with the selection-vector pool warm, filtering a
// 4096-row batch must cost a small constant number of allocations —
// none of them per-row.
func TestSelectBatchAllocs(t *testing.T) {
	rel := batchRel(4096, 6)
	b := toBatch(t, rel)
	vf, err := expr.CompileVecFilter(
		expr.NewCmp(expr.GT, expr.NewCol("v"), expr.NewConst(value.NewInt(500))), rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool so the measured runs recycle one right-sized buffer.
	out, _, err := SelectBatch(b, vf)
	if err != nil {
		t.Fatal(err)
	}
	value.PutSel(out.Sel)
	allocs := testing.AllocsPerRun(50, func() {
		o, _, err := SelectBatch(b, vf)
		if err != nil {
			t.Fatal(err)
		}
		value.PutSel(o.Sel)
	})
	if allocs > 4 {
		t.Errorf("SelectBatch allocates %.0f times per 4096-row batch; want <= 4", allocs)
	}
}

// TestProjectBatchAllocs: a projection is a pure pointer remap — batch
// header and column slice only, regardless of row count.
func TestProjectBatchAllocs(t *testing.T) {
	rel := batchRel(4096, 7)
	b := toBatch(t, rel)
	out := rel.Schema.Project([]int{2, 0})
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := ProjectBatch(b, []int{2, 0}, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("ProjectBatch allocates %.0f times; want <= 2 (header + column slice)", allocs)
	}
}

// paritySchema has one key-able column of every kind plus two value
// columns; parityRel fills it with small domains (so keys repeat),
// NULLs in every column, and the float payloads whose hashes collide
// or canonicalize: -0.0 and 0.0, integral floats, NaN and infinities.
var paritySchema = value.MustSchema("b", "BOOL", "i", "INT", "f", "FLOAT", "s", "VARCHAR", "v", "INT", "w", "FLOAT")

func parityRel(r *rand.Rand, n, domain int, nulls bool) *value.Relation {
	floats := []float64{0, math.Copysign(0, -1), 1, 2, -3, 0.5, 2.25, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "eu", "us", "apac", "latam", "ü"}
	rel := value.NewRelation(paritySchema)
	for k := 0; k < n; k++ {
		tup := value.NewTuple(
			value.NewBool(r.Intn(2) == 0),
			value.NewInt(int64(r.Intn(domain)-3)),
			value.NewFloat(floats[r.Intn(len(floats))]),
			value.NewString(strs[r.Intn(len(strs))]),
			value.NewInt(r.Int63n(2000)-1000),
			value.NewFloat(float64(r.Intn(1000))/8),
		)
		for c := range tup {
			if nulls && r.Intn(8) == 0 {
				tup[c] = value.Null
			}
		}
		rel.Append(tup)
	}
	return rel
}

// parityBatch transposes rel and, when sel is set, keeps a random subset
// of its rows under a selection vector. It returns the batch and the
// relation of the rows it selects — the row oracle's input.
func parityBatch(t *testing.T, r *rand.Rand, rel *value.Relation, sel bool) (*value.Batch, *value.Relation) {
	t.Helper()
	b := toBatch(t, rel)
	if sel {
		b.Sel = []int32{}
		for i := range rel.Tuples {
			if r.Intn(4) != 0 {
				b.Sel = append(b.Sel, int32(i))
			}
		}
	}
	return b, b.Materialize()
}

// requireIdentical asserts two relations hold the same schema and the
// same tuples in the same order, value kinds and float bits included:
// INT 1 and FLOAT 1.0 differ here although value.Compare equates them.
func requireIdentical(t *testing.T, name string, got, want *value.Relation) {
	t.Helper()
	if got.Schema.String() != want.Schema.String() {
		t.Fatalf("%s: schema %s, want %s", name, got.Schema, want.Schema)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
	}
	for i, wt := range want.Tuples {
		gt := got.Tuples[i]
		for c, wv := range wt {
			gv := gt[c]
			same := gv.Kind() == wv.Kind() && value.Compare(gv, wv) == 0
			if same && gv.Kind() == value.KindFloat {
				same = math.Float64bits(gv.Float()) == math.Float64bits(wv.Float()) || math.IsNaN(wv.Float())
			}
			if !same {
				t.Fatalf("%s row %d: %v, want %v", name, i, gt, wt)
			}
		}
	}
}

// allSpecs is every aggregate over every column, plus COUNT(*).
func allSpecs() []AggSpec {
	specs := []AggSpec{{Func: Count, Col: -1, As: "n"}}
	for c := 0; c < paritySchema.Len(); c++ {
		for _, f := range []AggFunc{Count, Sum, Avg, Min, Max} {
			specs = append(specs, AggSpec{Func: f, Col: c})
		}
	}
	return specs
}

// TestAggregateBatchParity runs AggregateBatch and the row Aggregate on
// seeded random inputs: keys of one to three columns of every kind,
// NULL keys and values, dense and selected batches, empty inputs, the
// global aggregate, and more groups than the table's initial size.
func TestAggregateBatchParity(t *testing.T) {
	groupBys := [][]int{nil, {0}, {1}, {2}, {3}, {1, 3}, {2, 0}, {3, 1, 2}, {0, 1, 2, 3}}
	specs := allSpecs()
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, domain := r.Intn(400), 10
		switch seed {
		case 1:
			n = 0
		case 2, 3:
			n, domain = 4000, 3000 // ~2000 int groups: the table grows
		}
		rel := parityRel(r, n, domain, seed%3 != 0)
		for _, gb := range groupBys {
			b, in := parityBatch(t, r, rel, seed%2 == 0)
			want, wst, err := Aggregate(in, gb, specs)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := AggregateBatch(b, gb, specs)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d group by %v", seed, gb)
			requireIdentical(t, name, got, want)
			if gst != wst {
				t.Errorf("%s: stats %+v, want %+v", name, gst, wst)
			}
		}
	}
}

// TestHashJoinBatchParity runs HashJoinBatch and the row HashJoin on
// seeded random inputs with one to three key columns of every kind,
// NULL keys, dense and selected batches, both build sides, and key
// columns of mismatched kinds, which never match: INT 1 and FLOAT 1.0
// hash alike but are different keys.
func TestHashJoinBatchParity(t *testing.T) {
	keys := []struct{ l, r []int }{
		{[]int{0}, []int{0}},
		{[]int{1}, []int{1}},
		{[]int{2}, []int{2}},
		{[]int{3}, []int{3}},
		{[]int{1, 3}, []int{1, 3}},
		{[]int{3, 2, 1}, []int{3, 2, 1}},
		{[]int{1}, []int{2}}, // INT vs FLOAT
		{[]int{0}, []int{1}}, // BOOL vs INT
		{[]int{3, 1}, []int{3, 5}},
	}
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		ln, rn := r.Intn(300), r.Intn(300)
		if seed == 1 {
			ln = 0
		}
		lrel, rrel := parityRel(r, ln, 6, seed%4 != 0), parityRel(r, rn, 6, seed%4 != 0)
		for _, k := range keys {
			lb, lin := parityBatch(t, r, lrel, seed%2 == 0)
			rb, rin := parityBatch(t, r, rrel, seed%3 == 0)
			want, wst, err := HashJoin(lin, rin, k.l, k.r)
			if err != nil {
				t.Fatal(err)
			}
			out, gst, err := HashJoinBatch(lb, rb, k.l, k.r)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d keys %v = %v", seed, k.l, k.r)
			requireIdentical(t, name, out.Materialize(), want)
			if gst != wst {
				t.Errorf("%s: stats %+v, want %+v", name, gst, wst)
			}
			if lrel.Schema.Column(k.l[0]).Kind != rrel.Schema.Column(k.r[0]).Kind && want.Len() != 0 {
				t.Errorf("%s: mismatched key kinds joined %d rows", name, want.Len())
			}
		}
	}
}

// TestKeyTableCollisions forces hash collisions between distinct keys:
// grouping must still give equal keys one id and distinct keys distinct
// ids, list groups in first-seen order, and lookups must find exactly
// the keys the table holds.
func TestKeyTableCollisions(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 2000
	vec := &value.Vec{Kind: value.KindInt, I: make([]int64, n)}
	h := make([]uint64, n)
	for i := range vec.I {
		vec.I[i] = int64(r.Intn(500))
		h[i] = uint64(vec.I[i] % 3) // three hashes for ~500 keys
	}
	kt := newKeyTable([]*value.Vec{vec})
	ids := make([]int32, n)
	kt.group(nil, h, ids)
	idOf := map[int64]int32{}
	var firstKeys []int64
	for i, id := range ids {
		k := vec.I[i]
		if prev, ok := idOf[k]; !ok {
			idOf[k] = id
			firstKeys = append(firstKeys, k)
		} else if prev != id {
			t.Fatalf("key %d got ids %d and %d", k, prev, id)
		}
	}
	if len(kt.hashes) != len(idOf) {
		t.Fatalf("%d ids for %d distinct keys", len(kt.hashes), len(idOf))
	}
	for i, g := range firstSeen(ids, len(kt.hashes)) {
		if k := vec.I[kt.reps[g]]; k != firstKeys[i] {
			t.Fatalf("group %d is key %d, want first-seen key %d", i, k, firstKeys[i])
		}
	}
	probe := &value.Vec{Kind: value.KindInt, I: make([]int64, 1000)}
	ph := make([]uint64, len(probe.I))
	for i := range probe.I {
		probe.I[i] = int64(r.Intn(1000))
		ph[i] = uint64(probe.I[i] % 3)
	}
	pids := make([]int32, len(probe.I))
	kt.lookup([]*value.Vec{probe}, nil, ph, pids)
	for i, id := range pids {
		want, ok := idOf[probe.I[i]]
		if !ok {
			want = -1
		}
		if id != want {
			t.Fatalf("lookup of %d = %d, want %d", probe.I[i], id, want)
		}
	}
}

// TestAggregateBatchAllocs: with the temporary hash and group-id buffers
// pooled, the allocations of a grouped aggregate depend on its group
// count, not its row count.
func TestAggregateBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	specs := []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 4, As: "s"}, {Func: Max, Col: 3, As: "hi"}}
	allocs := func(rows int) float64 {
		r := rand.New(rand.NewSource(int64(rows)))
		rel := parityRel(r, rows, 100, true)
		for k, tup := range rel.Tuples {
			tup[1] = value.NewInt(int64(k % 100)) // the same 100 groups at every size
		}
		b := toBatch(t, rel)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := AggregateBatch(b, []int{1}, specs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(1<<16)
	t.Logf("allocs per AggregateBatch at 100 groups: %.0f over 1k rows, %.0f over 64k rows", small, large)
	if large > small {
		t.Errorf("AggregateBatch allocates %.0f times over 64k rows but %.0f over 1k rows at 100 groups", large, small)
	}
}

// TestBatchHashTableConcurrentProbes builds one table and probes it
// from several goroutines at once, as a broadcast join's partitions do;
// every probe must match the row join (and -race must stay quiet).
func TestBatchHashTableConcurrentProbes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	build, probe := parityRel(r, 200, 6, true), parityRel(r, 600, 6, true)
	keys := []int{3, 1}
	want, _, err := HashJoin(build, probe, keys, keys) // builds on the smaller, left side
	if err != nil {
		t.Fatal(err)
	}
	ht, _, err := BuildBatchHashTable(toBatch(t, build), keys)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*value.Batch, 4)
	var wg sync.WaitGroup
	for g := range outs {
		pb := toBatch(t, probe)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, _, err := ht.Probe(pb, keys, true)
			if err != nil {
				t.Error(err)
				return
			}
			outs[g] = out
		}()
	}
	wg.Wait()
	for g, out := range outs {
		if out != nil {
			requireIdentical(t, fmt.Sprintf("probe %d", g), out.Materialize(), want)
		}
	}
}
