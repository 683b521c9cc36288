package algebra

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// benchSales builds a dense sales-shaped batch of n rows:
// (id INT, cust INT, region VARCHAR, product INT, amount INT), with 4
// regions, 1000 products and custs drawn from [0, custs).
func benchSales(n, custs int) *value.Batch {
	r := rand.New(rand.NewSource(1))
	regions := []string{"eu", "us", "apac", "latam"}
	schema := value.MustSchema("id", "INT", "cust", "INT", "region", "VARCHAR", "product", "INT", "amount", "INT")
	tuples := make([]value.Tuple, n)
	for i := range tuples {
		tuples[i] = value.NewTuple(
			value.NewInt(int64(i)),
			value.NewInt(int64(r.Intn(custs))),
			value.NewString(regions[r.Intn(len(regions))]),
			value.NewInt(int64(r.Intn(1000))),
			value.NewInt(int64(r.Intn(10000))))
	}
	return value.NewBatchFrom(schema, tuples)
}

// BenchmarkAggregateBatch groups a 64k-row batch with COUNT(*) and
// SUM(amount): by a 4-value string key, a 1000-value int key, and the
// two together.
func BenchmarkAggregateBatch(b *testing.B) {
	const rows = 1 << 16
	batch := benchSales(rows, 1000)
	specs := []AggSpec{{Func: Count, Col: -1, As: "n"}, {Func: Sum, Col: 4, As: "total"}}
	for _, c := range []struct {
		name    string
		groupBy []int
	}{
		{"lowcard", []int{2}},
		{"highcard", []int{3}},
		{"twocol", []int{2, 3}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := AggregateBatch(batch, c.groupBy, specs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkHashJoinBatch joins a 64k-row batch against a 1000-row
// dimension on an int key (build on the dimension, probe with every
// fact row).
func BenchmarkHashJoinBatch(b *testing.B) {
	const rows = 1 << 16
	fact := benchSales(rows, 1000)
	dim := benchSales(1000, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := HashJoinBatch(fact, dim, []int{1}, []int{0}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
