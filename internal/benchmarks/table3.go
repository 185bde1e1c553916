package benchmarks

import (
	"fmt"
	"io"

	"gobeagle"
	"gobeagle/internal/cpuimpl"
)

// Table3Row is one row of Table III: CPU threading optimizations for the
// core partial-likelihoods function (single precision, 10,000 patterns),
// extended with the hybrid op×pattern scheduler.
type Table3Row struct {
	Tips         int
	Serial       float64 // GFLOPS
	Futures      float64
	ThreadCreate float64
	ThreadPool   float64
	Hybrid       float64
	Speedup      float64 // thread-pool / serial
}

// table3Flags are the threading selections compared by the Table III
// machinery, in column order.
var table3Flags = []gobeagle.Flags{
	0, gobeagle.FlagThreadingFutures,
	gobeagle.FlagThreadingThreadCreate, gobeagle.FlagThreadingThreadPool,
	gobeagle.FlagThreadingThreadPoolHybrid,
}

// Table3 reproduces Table III: the threading designs against the serial
// baseline across tree sizes, on the modeled dual Xeon E5-2680v4. Every
// configuration is first executed for real to verify correctness.
func Table3(verifyPatterns int) ([]Table3Row, error) {
	model := DefaultCPUModel()
	var rows []Table3Row
	for _, tips := range []int{8, 16, 64, 128} {
		// Real execution pass (small pattern count keeps it fast); exercises
		// exactly the code paths being modeled.
		if verifyPatterns > 0 {
			vp, err := NewProblem(int64(tips), tips, 4, verifyPatterns, 4)
			if err != nil {
				return nil, err
			}
			for _, flags := range table3Flags {
				if err := HostEval(vp, flags|gobeagle.FlagPrecisionSingle); err != nil {
					return nil, err
				}
			}
		}
		// Modeled throughput at the paper's problem size.
		p, err := NewProblem(int64(tips), tips, 4, 10000, 4)
		if err != nil {
			return nil, err
		}
		w := model.Desc.Cores
		row := Table3Row{
			Tips:         tips,
			Serial:       model.ThroughputGF(cpuimpl.Serial, 1, p, true),
			Futures:      model.ThroughputGF(cpuimpl.Futures, w, p, true),
			ThreadCreate: model.ThroughputGF(cpuimpl.ThreadCreate, w, p, true),
			ThreadPool:   model.ThroughputGF(cpuimpl.ThreadPool, w, p, true),
			Hybrid:       model.ThroughputGF(cpuimpl.ThreadPoolHybrid, w, p, true),
		}
		row.Speedup = row.ThreadPool / row.Serial
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable3 renders the rows in the paper's layout.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table III: CPU threading optimizations (single precision, 10,000 patterns)")
	fmt.Fprintln(w, "tips    serial   futures  thread-create  thread-pool  hybrid  speedup(x serial)")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d  %8.2f  %8.2f  %13.2f  %11.2f  %6.2f  %7.2f\n",
			r.Tips, r.Serial, r.Futures, r.ThreadCreate, r.ThreadPool, r.Hybrid, r.Speedup)
	}
}

// HybridRow is one row of the small-pattern extension of Table III: the
// regime where the whole-problem 512-pattern threshold makes the plain
// pattern-chunking strategies degrade to serial even though the tree offers
// abundant operation-level concurrency.
type HybridRow struct {
	Tips         int
	Patterns     int
	MaxLevel     int     // widest dependency level (independent operations)
	Serial       float64 // GFLOPS
	Futures      float64
	ThreadCreate float64
	ThreadPool   float64
	Hybrid       float64
	Gain         float64 // hybrid / thread-pool
}

// Table3Hybrid extends the Table III machinery into the small-pattern
// regime: wide trees at 128–512 patterns, where the hybrid op×pattern
// scheduler must beat (or match) the plain thread pool. Every configuration
// is executed for real at its actual problem size before being modeled.
func Table3Hybrid(verify bool) ([]HybridRow, error) {
	model := DefaultCPUModel()
	var rows []HybridRow
	for _, tips := range []int{32, 64} {
		for _, patterns := range []int{128, 256, 512} {
			p, err := NewProblem(int64(tips*1000+patterns), tips, 4, patterns, 4)
			if err != nil {
				return nil, err
			}
			if verify {
				for _, flags := range table3Flags {
					if err := HostEval(p, flags|gobeagle.FlagPrecisionSingle); err != nil {
						return nil, err
					}
				}
			}
			maxLevel := 0
			for _, w := range p.LevelWidths() {
				if w > maxLevel {
					maxLevel = w
				}
			}
			w := model.Desc.Cores
			row := HybridRow{
				Tips:         tips,
				Patterns:     patterns,
				MaxLevel:     maxLevel,
				Serial:       model.ThroughputGF(cpuimpl.Serial, 1, p, true),
				Futures:      model.ThroughputGF(cpuimpl.Futures, w, p, true),
				ThreadCreate: model.ThroughputGF(cpuimpl.ThreadCreate, w, p, true),
				ThreadPool:   model.ThroughputGF(cpuimpl.ThreadPool, w, p, true),
				Hybrid:       model.ThroughputGF(cpuimpl.ThreadPoolHybrid, w, p, true),
			}
			row.Gain = row.Hybrid / row.ThreadPool
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintTable3Hybrid renders the small-pattern comparison.
func PrintTable3Hybrid(w io.Writer, rows []HybridRow) {
	fmt.Fprintln(w, "Table III extension: hybrid op x pattern scheduler at small pattern counts (single precision)")
	fmt.Fprintln(w, "tips  patterns  max-level    serial   futures  thread-create  thread-pool   hybrid  gain(x thread-pool)")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d  %8d  %9d  %8.2f  %8.2f  %13.2f  %11.2f  %7.2f  %7.2f\n",
			r.Tips, r.Patterns, r.MaxLevel, r.Serial, r.Futures, r.ThreadCreate, r.ThreadPool, r.Hybrid, r.Gain)
	}
}
