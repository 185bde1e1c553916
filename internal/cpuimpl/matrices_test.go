package cpuimpl

import (
	"fmt"
	"math"
	"testing"
)

// TestPoolMatricesEqualSerial holds the pool modes, which compute a
// request's matrices as contiguous runs on their workers, to Serial's
// matrices bit for bit: a full list, a FlagReuse list of which only some
// entries changed, a list too short to split (fewer than two matrices a
// worker, computed inline) and a list that names one matrix twice, where
// the last edge length wins.
func TestPoolMatricesEqualSerial(t *testing.T) {
	tr, m, rates, _ := telemetryProblem(t)
	ed, err := m.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	n := tr.NodeCount()
	all := make([]int, n)
	lens := make([]float64, n)
	moved := make([]float64, n)
	for i := range all {
		all[i], lens[i], moved[i] = i, 0.01*float64(i+1), 0.01*float64(i+1)
		if i%3 == 0 {
			moved[i] *= 2
		}
	}
	type call struct {
		mats []int
		lens []float64
	}
	requests := []struct {
		name  string
		reuse bool
		calls []call
	}{
		{"full list", false, []call{{all, lens}}},
		{"reuse, partly clean", true, []call{{all, lens}, {all, moved}}},
		{"fewer than two a worker", false, []call{{all, lens}, {all[:5], moved[:5]}}},
		{"a matrix listed twice", false, []call{{append(all[:4:4], all...), append([]float64{9, 9, 9, 9}, lens...)}}},
	}
	for _, rq := range requests {
		run := func(mode Mode) []float64 {
			cfg := testConfig(tr, 4, 16, 4, false)
			cfg.Reuse = rq.reuse
			e, err := New(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data); err != nil {
				t.Fatal(err)
			}
			if err := e.SetCategoryRates(rates.Rates); err != nil {
				t.Fatal(err)
			}
			for _, c := range rq.calls {
				if err := e.UpdateTransitionMatrices(0, c.mats, c.lens); err != nil {
					t.Fatal(err)
				}
			}
			var out []float64
			for _, mat := range all {
				v, err := e.GetTransitionMatrix(mat)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v...)
			}
			return out
		}
		want := run(Serial)
		for _, mode := range []Mode{ThreadPool, ThreadPoolHybrid} {
			t.Run(fmt.Sprintf("%s/%v", rq.name, mode), func(t *testing.T) {
				got := run(mode)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("entry %d (matrix %d) is %v, Serial %v", i, i/64, got[i], want[i])
					}
				}
			})
		}
	}
}
