package core

import "testing"

// BenchmarkRepartitionJoinAgg runs a grouped aggregate over a
// repartition join of the star tables (fact ⋈ dim2 on f.b, GROUP BY
// d2.cat) through the plan cache, and reports the simulated network
// bytes each statement ships between PEs.
func BenchmarkRepartitionJoinAgg(b *testing.B) {
	e := newEngine(b)
	setupStar(b, e)
	s := e.NewSession()
	const q = `SELECT d2.cat, COUNT(*) AS n, SUM(f.amt) AS total FROM fact f
		JOIN dim2 d2 ON f.b = d2.id GROUP BY d2.cat`
	if _, err := s.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	net := e.Machine().NetBytes()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.Machine().NetBytes()-net)/float64(b.N), "netB/op")
}
