package main

import (
	"fmt"
	"math/rand"

	"repro/internal/value"
)

// Data sizes. Both big tables are hash-fragmented 8 ways over a 16-PE
// machine.
const (
	acctRows  = 200_000
	salesRows = 200_000
	custRows  = 10_000
	products  = 1_000
	days      = 365
	amounts   = 10_000 // amount is uniform in [0, amounts)
	dayLits   = 30     // GROUP BY shapes filter day >= d, d in [0, dayLits)
	rangeRows = 2_000  // rows a 1% acct id-range scan returns
	fragments = 8
	numPEs    = 16
)

var (
	regions  = []string{"eu", "us", "apac", "latam"}
	segments = []string{"retail", "smb", "enterprise", "public", "partner"}
)

// acctData is the acct(id, region, balance) table as generated, which
// the point-read and htap scan checks and the ledger audit compare
// against.
type acctData struct {
	region      []uint8
	balance     []int64
	sum         int64
	regionCount [4]int64
}

func genAcct(seed int64) *acctData {
	r := rand.New(rand.NewSource(seed ^ 0x61636374))
	a := &acctData{region: make([]uint8, acctRows), balance: make([]int64, acctRows)}
	for i := range a.region {
		a.region[i] = uint8(r.Intn(len(regions)))
		a.balance[i] = int64(100 + r.Intn(900))
		a.sum += a.balance[i]
		a.regionCount[a.region[i]]++
	}
	return a
}

func (a *acctData) tuples() []value.Tuple {
	out := make([]value.Tuple, acctRows)
	for i := range out {
		out[i] = value.NewTuple(value.NewInt(int64(i)), value.NewString(regions[a.region[i]]), value.NewInt(a.balance[i]))
	}
	return out
}

// salesData is the sales(id, cust, region, product, amount, day) and
// cust(cust, segment) pair, with the expected answer of every analytics
// shape for every literal precomputed from the generated rows.
type salesData struct {
	cust    []int32
	region  []uint8
	product []int16
	amount  []int32
	day     []int16
	segment []uint8 // per cust

	low     [dayLits][4]agg        // agg-lowcard by literal, region
	high    [dayLits][products]agg // agg-highcard by literal, product
	band    [amounts / 100]agg     // filter-1pct by band: n, sum of ids
	below   [amounts + 1]int64     // filter-count-50pct: rows with amount < x
	joinSeg [dayLits][5]agg        // join-agg by literal, segment
}

// agg is one expected group: COUNT(*) and SUM(...).
type agg struct{ n, sum int64 }

func genSales(seed int64) *salesData {
	r := rand.New(rand.NewSource(seed ^ 0x73616c65))
	s := &salesData{
		cust: make([]int32, salesRows), region: make([]uint8, salesRows), product: make([]int16, salesRows),
		amount: make([]int32, salesRows), day: make([]int16, salesRows), segment: make([]uint8, custRows),
	}
	for i := range s.segment {
		s.segment[i] = uint8(r.Intn(len(segments)))
	}
	var lowByDay [days][4]agg
	var highByDay [days][products]agg
	var segByDay [days][5]agg
	var byAmount [amounts]int64
	for i := 0; i < salesRows; i++ {
		s.cust[i] = int32(r.Intn(custRows))
		s.region[i] = uint8(r.Intn(len(regions)))
		s.product[i] = int16(r.Intn(products))
		s.amount[i] = int32(r.Intn(amounts))
		s.day[i] = int16(r.Intn(days))
		amt, d := int64(s.amount[i]), s.day[i]
		lowByDay[d][s.region[i]].add(amt)
		highByDay[d][s.product[i]].add(amt)
		segByDay[d][s.segment[s.cust[i]]].add(amt)
		s.band[s.amount[i]/100].add(int64(i))
		byAmount[s.amount[i]]++
	}
	for x := 1; x <= amounts; x++ {
		s.below[x] = s.below[x-1] + byAmount[x-1]
	}
	// Literal d keeps days >= d; accumulate from the last day down.
	var low [4]agg
	var high [products]agg
	var seg [5]agg
	for d := days - 1; d >= 0; d-- {
		for g := range low {
			low[g].merge(lowByDay[d][g])
		}
		for g := range high {
			high[g].merge(highByDay[d][g])
		}
		for g := range seg {
			seg[g].merge(segByDay[d][g])
		}
		if d < dayLits {
			s.low[d], s.high[d], s.joinSeg[d] = low, high, seg
		}
	}
	return s
}

func (g *agg) add(v int64)   { g.n++; g.sum += v }
func (g *agg) merge(o agg)   { g.n += o.n; g.sum += o.sum }
func (g agg) String() string { return fmt.Sprintf("(n=%d sum=%d)", g.n, g.sum) }

func (s *salesData) salesTuples() []value.Tuple {
	out := make([]value.Tuple, salesRows)
	for i := range out {
		out[i] = value.NewTuple(value.NewInt(int64(i)), value.NewInt(int64(s.cust[i])),
			value.NewString(regions[s.region[i]]), value.NewInt(int64(s.product[i])),
			value.NewInt(int64(s.amount[i])), value.NewInt(int64(s.day[i])))
	}
	return out
}

func (s *salesData) custTuples() []value.Tuple {
	out := make([]value.Tuple, custRows)
	for i := range out {
		out[i] = value.NewTuple(value.NewInt(int64(i)), value.NewString(segments[s.segment[i]]))
	}
	return out
}

// Statement kinds and the latency class each is reported under.
type opKind uint8

const (
	opPoint    opKind = iota // point SELECT by primary key
	opUpdate                 // single-row UPDATE
	opInsDel                 // INSERT then DELETE of a private key
	opTransfer               // BEGIN, two UPDATEs, COMMIT
	opScan                   // one scan shape
)

type class uint8

const (
	clsPoint class = iota
	clsWrite
	clsScan
	nClasses
)

var classNames = [nClasses]string{"point", "write", "scan"}

func (k opKind) class() class {
	switch k {
	case opPoint:
		return clsPoint
	case opScan:
		return clsScan
	}
	return clsWrite
}

// Scan shapes. The first five run on sales/cust (analytics); the last
// two on acct (htap).
const (
	shAggLow = iota
	shAggHigh
	shFilter1
	shCount50
	shJoinAgg
	shAcctAgg
	shAcctRange
	nShapes
)

var shapeNames = [nShapes]string{"agg-lowcard", "agg-highcard", "filter-1pct", "filter-count-50pct", "join-agg", "acct-agg-lowcard", "acct-filter-1pct"}

// shapeSQL renders a scan shape with its seeded literal.
func shapeSQL(sh, lit int) string {
	switch sh {
	case shAggLow:
		return fmt.Sprintf("SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales WHERE day >= %d GROUP BY region", lit)
	case shAggHigh:
		return fmt.Sprintf("SELECT product, COUNT(*) AS n, SUM(amount) AS total FROM sales WHERE day >= %d GROUP BY product", lit)
	case shFilter1:
		return fmt.Sprintf("SELECT * FROM sales WHERE amount >= %d AND amount < %d", lit*100, lit*100+100)
	case shCount50:
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM sales WHERE amount < %d", lit)
	case shJoinAgg:
		return fmt.Sprintf("SELECT c.segment, COUNT(*) AS n, SUM(s.amount) AS total FROM sales s JOIN cust c ON s.cust = c.cust WHERE s.day >= %d GROUP BY c.segment", lit)
	case shAcctAgg:
		return "SELECT region, COUNT(*) AS n, SUM(balance) AS total FROM acct GROUP BY region"
	case shAcctRange:
		return fmt.Sprintf("SELECT * FROM acct WHERE id >= %d AND id < %d", lit, lit+rangeRows)
	}
	panic(fmt.Sprintf("perfbench: unknown shape %d", sh))
}

// shapeLit draws a seeded literal for a shape.
func shapeLit(r *rand.Rand, sh int) int {
	switch sh {
	case shFilter1:
		return r.Intn(amounts / 100)
	case shCount50:
		return amounts*45/100 + r.Intn(amounts/10)
	case shAcctAgg:
		return 0 // no literal: the count check needs every row
	case shAcctRange:
		return r.Intn(acctRows - rangeRows)
	}
	return r.Intn(dayLits)
}

// op is one logical statement: the unit counted, timed and checked.
type op struct {
	id    int64 // lane<<40 | sequence number, unique in a run
	kind  opKind
	shape int
	lit   int
	k, k2 int64 // keys: the row read or written; a transfer's target
	delta int64 // UPDATE delta, transfer amount, or inserted balance
	sql   [2]string
}

// Mixes, in percent of statements.
type mix struct{ point, update, insdel, transfer, scan int }

var (
	oltpMix  = mix{point: 60, update: 20, insdel: 10, transfer: 10}
	writeMix = mix{update: 70, insdel: 30}
	scanMix  = mix{scan: 100}
)

// stream is one lane's seeded statement sequence: the same seed and
// lane always give the same statements in the same order.
type stream struct {
	r      *rand.Rand
	lane   int64
	seq    int64
	mix    mix
	shapes []int
}

func newStream(seed int64, lane int, m mix, shapes []int) *stream {
	return &stream{r: rand.New(rand.NewSource(seed*1_000_003 + int64(lane))), lane: int64(lane), mix: m, shapes: shapes}
}

// privateKey is a key no loaded row and no other statement uses.
func (s *stream) privateKey() int64 { return 10_000_000 + s.lane*100_000_000 + s.seq }

func (s *stream) next() op {
	s.seq++
	o := op{id: s.lane<<40 | s.seq}
	p := s.r.Intn(100)
	k := int64(s.r.Intn(acctRows))
	m := s.mix
	switch {
	case p < m.point:
		o.kind, o.k = opPoint, k
		o.sql[0] = fmt.Sprintf("SELECT * FROM acct WHERE id = %d", k)
	case p < m.point+m.update:
		o.kind, o.k, o.delta = opUpdate, k, int64(s.r.Intn(21)-10)
		o.sql[0] = fmt.Sprintf("UPDATE acct SET balance = balance + %d WHERE id = %d", o.delta, k)
	case p < m.point+m.update+m.insdel:
		o.kind, o.k, o.delta = opInsDel, s.privateKey(), int64(1+s.r.Intn(100))
		o.sql[0] = fmt.Sprintf("INSERT INTO acct VALUES (%d, 'tmp', %d)", o.k, o.delta)
		o.sql[1] = fmt.Sprintf("DELETE FROM acct WHERE id = %d", o.k)
	case p < m.point+m.update+m.insdel+m.transfer:
		o.kind, o.k, o.k2, o.delta = opTransfer, k, int64(s.r.Intn(acctRows)), int64(1+s.r.Intn(50))
		o.sql[0] = fmt.Sprintf("UPDATE acct SET balance = balance - %d WHERE id = %d", o.delta, o.k)
		o.sql[1] = fmt.Sprintf("UPDATE acct SET balance = balance + %d WHERE id = %d", o.delta, o.k2)
	default:
		o = s.scanOp(s.shapes[s.r.Intn(len(s.shapes))])
	}
	return o
}

// scanOp is the lane's next statement, forced to scan shape sh.
func (s *stream) scanOp(sh int) op {
	s.seq++
	o := op{id: s.lane<<40 | s.seq, kind: opScan, shape: sh, lit: shapeLit(s.r, sh)}
	o.sql[0] = shapeSQL(sh, o.lit)
	return o
}
