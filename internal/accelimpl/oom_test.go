package accelimpl

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gobeagle/internal/device"
	"gobeagle/internal/engine"
	"gobeagle/internal/seqgen"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// tinyDevice returns an OpenCL GPU with almost no memory, for exercising
// out-of-memory paths.
func tinyDevice(memBytes int64) *device.Device {
	desc := device.RadeonR9Nano
	desc.Name = "Tiny GPU"
	desc.MemoryBytes = memBytes
	return device.NewDevice(desc, device.OpenCL, 2)
}

func TestEngineCreationFailsOnTinyDevice(t *testing.T) {
	start := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(1))
	tr, _ := tree.Random(rng, 8, 0.1)
	cfg := testConfig(tr, 4, 100000, 4, false)
	dev := tinyDevice(1 << 10) // 1 KiB: the matrix pool cannot fit
	if _, err := New(cfg, OpenCLGPU, dev); err == nil {
		t.Fatal("expected out-of-memory during engine creation")
	}
	// No leaked accounting or workers after the failed construction.
	if dev.AllocatedBytes() != 0 {
		t.Fatalf("leak after failed construction: %d bytes", dev.AllocatedBytes())
	}
	goroutinesSettle(t, start)
	// Nor when the device already holds another engine: the matrix pool of
	// the second fits, its site staging buffer does not.
	dev = tinyDevice(64 << 10)
	first, err := New(testConfig(tr, 4, 100, 4, false), OpenCLGPU, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	held := dev.AllocatedBytes()
	if _, err := New(cfg, OpenCLGPU, dev); err == nil {
		t.Fatal("expected out-of-memory creating the second engine")
	}
	if dev.AllocatedBytes() != held {
		t.Fatalf("failed construction moved the accounting from %d to %d bytes", held, dev.AllocatedBytes())
	}
	first.Close()
	goroutinesSettle(t, start)
}

func TestLazyPartialsAllocationFailureSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, _ := tree.Random(rng, 8, 0.1)
	m := substmodel.NewJC69()
	rates := substmodel.SingleRate()
	ps, _ := seqgen.RandomPatterns(rng, 8, 4, 4096)
	// Enough memory for matrices and tips but not for all internal
	// partials: 15 partials buffers × 4096·4·8 = 1.9 MiB needed; grant 1 MiB.
	dev := tinyDevice(1 << 20)
	cfg := testConfig(tr, 4, ps.PatternCount(), 1, false)
	cfg.Reuse = true
	e, err := New(cfg, OpenCLGPU, dev)
	if err != nil {
		t.Skipf("construction already failed: %v", err)
	}
	defer e.Close()
	ed, _ := m.Eigen()
	steps := []error{
		e.SetEigenDecomposition(0, ed.Values, ed.Vectors.Data, ed.InverseVectors.Data),
		e.SetCategoryRates(rates.Rates),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := e.SetTipStates(i, ps.TipStates(i)); err != nil {
			t.Fatal(err)
		}
	}
	sched := tr.FullSchedule()
	mats := make([]int, len(sched.Matrices))
	lens := make([]float64, len(sched.Matrices))
	for i, mu := range sched.Matrices {
		mats[i], lens[i] = mu.Matrix, mu.Length
	}
	if err := e.UpdateTransitionMatrices(0, mats, lens); err != nil {
		t.Fatal(err)
	}
	ops := make([]engine.Operation, len(sched.Ops))
	for i, op := range sched.Ops {
		ops[i] = engine.Operation{
			Dest: op.Dest, DestScaleWrite: engine.None, DestScaleRead: engine.None,
			Child1: op.Child1, Child1Mat: op.Child1Mat,
			Child2: op.Child2, Child2Mat: op.Child2Mat,
		}
	}
	// The batch that does not fit is refused with the device's error before
	// anything is launched and before the reuse tracker has seen it, and the
	// device never accounts more than it has.
	q := e.(*Engine[float64]).Queue()
	launches := q.Launches()
	err = e.UpdatePartials(ops)
	if err == nil {
		t.Fatal("expected out-of-memory during partials allocation")
	}
	if !strings.Contains(err.Error(), "device: out of memory") {
		t.Errorf("batch refused with %q, want the device's out-of-memory error", err)
	}
	if q.Launches() != launches {
		t.Errorf("%d kernels launched by a batch that does not fit", q.Launches()-launches)
	}
	if st := e.(*Engine[float64]).ReuseStats(); !st.Enabled || st.OpMisses != 0 || st.OpHits != 0 {
		t.Errorf("reuse tracker saw the refused batch: %+v", st)
	}
	if err := e.UpdatePartials(ops); err == nil || q.Launches() != launches {
		t.Errorf("resubmitting the batch: err %v, %d launches", err, q.Launches()-launches)
	}
	if got := dev.AllocatedBytes(); got > dev.Desc.MemoryBytes || got <= 0 {
		t.Errorf("device accounts %d bytes of %d", got, dev.Desc.MemoryBytes)
	}
	// What was computed before still reads back, and Close returns it all.
	if _, err := e.GetTransitionMatrix(mats[0]); err != nil {
		t.Errorf("reading a matrix back after out-of-memory: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if dev.AllocatedBytes() != 0 {
		t.Errorf("%d bytes still accounted after Close", dev.AllocatedBytes())
	}
}
