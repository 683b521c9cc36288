package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fragment"
	"repro/internal/value"
)

// E20Vectorized measures the columnar batch executor against the
// central row baseline on the shapes the vectorization tentpole
// targets: filter-heavy scans across a selectivity sweep, an equi-join,
// and grouped aggregation. Two engines over identical data differ only
// in Config.Vectorized; EXPLAIN must prove the vectorized engine's
// plans actually run columnar (and the baseline's row-at-a-time) before
// anything is timed. Runs interleave vec/row and report medians, so
// scheduler noise hits both sides alike. Reported per shape and
// selectivity: median wall per executor, wall speedup, vectorized scan
// throughput, and the simulated response times. The cost model charges
// both executors with the same per-operator formulas; the sim gap on
// projecting shapes is real modeled savings — a columnar projection is a
// pointer remap at the data, so narrower batches cross the simulated
// network — and on the join it is the partition parallelism the central
// baseline lacks, while the wall speedup is host work avoided.
func E20Vectorized(quick bool) (*Table, error) {
	factRows, dimRows := 60000, 2200
	runs := 9
	if quick {
		factRows, runs = 20000, 5
	}

	factSchema := value.MustSchema("id", "INT", "a", "INT", "b", "INT", "amt", "INT")
	dimSchema := value.MustSchema("id", "INT", "w", "INT")
	fact := make([]value.Tuple, factRows)
	for i := range fact {
		fact[i] = value.NewTuple(
			value.NewInt(int64(i)), value.NewInt(int64(i%dimRows)),
			value.NewInt(int64((i*13)%dimRows)), value.NewInt(int64(i%97)))
	}
	dim := make([]value.Tuple, dimRows)
	for i := range dim {
		dim[i] = value.NewTuple(value.NewInt(int64(i)), value.NewInt(int64(i%7)))
	}

	vecOn, vecOff := true, false
	engines := []struct {
		name string
		cfg  core.Config
		want string // EXPLAIN execution line that must appear
	}{
		{"vec", core.Config{NumPEs: 16, Vectorized: &vecOn}, "execution: vectorized (columnar batches)"},
		{"row", core.Config{NumPEs: 16, Vectorized: &vecOff}, "execution: row-at-a-time"},
	}
	type engState struct {
		eng *core.Engine
		s   *core.Session
	}
	states := make([]engState, len(engines))
	for i, ec := range engines {
		eng, err := core.New(ec.cfg)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		load := func(name string, schema *value.Schema, tuples []value.Tuple) error {
			if err := eng.CreateTable(name, schema,
				&fragment.Scheme{Strategy: fragment.Hash, Column: 0, N: 8}, []int{0}); err != nil {
				return err
			}
			return eng.LoadTable(name, tuples)
		}
		if err := load("fact", factSchema, fact); err != nil {
			return nil, err
		}
		if err := load("dim1", dimSchema, dim); err != nil {
			return nil, err
		}
		states[i] = engState{eng: eng, s: eng.NewSession()}
	}

	// amt is uniform over [0, 97); a threshold of sel*97 keeps ~sel of
	// the rows.
	sel := func(f float64) int { return int(f * 97) }
	grid := []struct {
		shape       string
		selectivity float64
		query       string
	}{
		{"filter-scan", 0.01, fmt.Sprintf("SELECT id, amt FROM fact WHERE amt < %d", sel(0.01))},
		{"filter-scan", 0.10, fmt.Sprintf("SELECT id, amt FROM fact WHERE amt < %d", sel(0.10))},
		{"filter-scan", 0.50, fmt.Sprintf("SELECT id, amt FROM fact WHERE amt < %d", sel(0.50))},
		{"filter-scan", 0.90, fmt.Sprintf("SELECT id, amt FROM fact WHERE amt < %d", sel(0.90))},
		{"join", 0.50, fmt.Sprintf(
			"SELECT COUNT(*) AS n FROM fact f JOIN dim1 d1 ON f.a = d1.id WHERE f.amt < %d", sel(0.50))},
		{"aggregate", 0.50, fmt.Sprintf(
			"SELECT a, COUNT(*) AS n, SUM(amt) AS s FROM fact WHERE amt < %d GROUP BY a", sel(0.50))},
	}

	t := &Table{
		ID: "E20",
		Title: fmt.Sprintf("vectorized columnar execution vs tuple-at-a-time (%d fact rows, %d runs interleaved, medians)",
			factRows, runs),
		Header: []string{"shape", "selectivity", "rows", "vec wall", "row wall", "wall speedup", "vec rows/sec", "vec sim", "row sim"},
		Notes: []string{
			"vec: Config.Vectorized=true — scans filter over OFM column caches with selection vectors, operators stay columnar to the root",
			"row: Config.Vectorized=false — the central row executor: tuples gather at the coordinator and every operator runs there, except that the OFMs pre-aggregate a pushdown aggregate over a bare scan",
			"EXPLAIN gates every timed plan: the vec engine must report 'execution: vectorized (columnar batches)'",
			"sim uses identical per-operator cost formulas; the vec sim advantage on projecting shapes is narrower batches crossing the simulated network (columnar projection happens at the data), on the join it is the partitioned join against the central one; wall speedup is host work avoided",
			"vec rows/sec = fact rows scanned / median vec wall",
		},
	}

	for _, g := range grid {
		// EXPLAIN gate + warm-up (compiles plans, builds column caches).
		for i, ec := range engines {
			plan, err := states[i].s.Query("EXPLAIN " + g.query)
			if err != nil {
				return nil, err
			}
			var planStr strings.Builder
			for _, row := range plan.Tuples {
				planStr.WriteString(row[0].Str())
				planStr.WriteByte('\n')
			}
			if !strings.Contains(planStr.String(), ec.want) {
				return nil, fmt.Errorf("E20: %s engine plan for %q lacks %q:\n%s",
					ec.name, g.query, ec.want, planStr.String())
			}
			if _, err := states[i].s.Exec(g.query); err != nil {
				return nil, err
			}
		}
		// Interleaved timed runs.
		walls := make([][]time.Duration, len(engines))
		for r := 0; r < runs; r++ {
			for i := range engines {
				start := time.Now()
				if _, err := states[i].s.Exec(g.query); err != nil {
					return nil, err
				}
				walls[i] = append(walls[i], time.Since(start))
			}
		}
		// Simulated response: deterministic, one measurement each.
		sims := make([]time.Duration, len(engines))
		for i := range engines {
			states[i].eng.Machine().ResetClocks()
			if _, err := states[i].s.Exec(g.query); err != nil {
				return nil, err
			}
			sims[i] = states[i].eng.Machine().MaxClock()
		}
		vecWall, rowWall := median(walls[0]), median(walls[1])
		speedup := 0.0
		if vecWall > 0 {
			speedup = float64(rowWall) / float64(vecWall)
		}
		rowsPerSec := 0.0
		if vecWall > 0 {
			rowsPerSec = float64(factRows) / vecWall.Seconds()
		}
		t.AddRow(g.shape, fmt.Sprintf("%.2f", g.selectivity), factRows,
			vecWall.Round(time.Microsecond).String(),
			rowWall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("%.0f", rowsPerSec),
			sims[0].Round(time.Microsecond).String(),
			sims[1].Round(time.Microsecond).String())
	}
	return t, nil
}

// median returns the middle value of the (unsorted) durations.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
