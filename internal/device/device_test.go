package device

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gobeagle/internal/engine"
)

func TestPlatformEnumeration(t *testing.T) {
	ResetPlatforms()
	all := Platforms("")
	if len(all) != 4 {
		t.Fatalf("platform count %d, want 4", len(all))
	}
	cuda := Platforms(CUDA)
	if len(cuda) != 1 || cuda[0].Vendor != "NVIDIA" {
		t.Fatalf("CUDA platforms: %+v", cuda)
	}
	ocl := Platforms(OpenCL)
	if len(ocl) != 3 {
		t.Fatalf("OpenCL platform count %d, want 3", len(ocl))
	}
}

func TestFindDevice(t *testing.T) {
	ResetPlatforms()
	d, err := FindDevice(CUDA, "Quadro P5000")
	if err != nil {
		t.Fatal(err)
	}
	if d.Desc.Vendor != "NVIDIA" || d.Framework != CUDA {
		t.Fatalf("unexpected device %+v", d.Desc)
	}
	// The same hardware is also visible through the OpenCL driver — the
	// ICD-loader behaviour of §VII-B3.
	d2, err := FindDevice(OpenCL, "Quadro P5000")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Framework != OpenCL {
		t.Fatal("OpenCL driver must expose its own device handle")
	}
	if _, err := FindDevice(CUDA, "Radeon R9 Nano"); err == nil {
		t.Fatal("AMD hardware must not appear under CUDA")
	}
}

func TestAllDevicesSorted(t *testing.T) {
	ResetPlatforms()
	devs := AllDevices()
	if len(devs) != 6 {
		t.Fatalf("device count %d, want 6", len(devs))
	}
	for i := 1; i < len(devs); i++ {
		a, b := devs[i-1], devs[i]
		if a.Framework > b.Framework || (a.Framework == b.Framework && a.Desc.Name > b.Desc.Name) {
			t.Fatal("devices not sorted")
		}
	}
}

func TestAllocAccountingAndOOM(t *testing.T) {
	d := NewDevice(Descriptor{Name: "tiny", MemoryBytes: 1024, Kind: KindGPU, Cores: 4,
		BandwidthGBs: 1, PeakSPGFLOPS: 1, DPRatio: 1, TransferGBs: 1, BaseAlign: 64}, OpenCL, 2)
	b1, err := Alloc[float64](d, 64) // 512 bytes
	if err != nil {
		t.Fatal(err)
	}
	if d.AllocatedBytes() != 512 {
		t.Fatalf("allocated %d want 512", d.AllocatedBytes())
	}
	if _, err := Alloc[float64](d, 128); err == nil {
		t.Fatal("expected out-of-memory")
	}
	if err := b1.Free(); err != nil {
		t.Fatal(err)
	}
	if d.AllocatedBytes() != 0 {
		t.Fatalf("allocated %d after free", d.AllocatedBytes())
	}
	if err := b1.Free(); err == nil {
		t.Fatal("expected double-free error")
	}
	if _, err := Alloc[float32](d, 0); err == nil {
		t.Fatal("expected error for zero-size allocation")
	}
}

func TestSubBufferStyles(t *testing.T) {
	ResetPlatforms()
	cudaDev, _ := FindDevice(CUDA, "Quadro P5000")
	oclDev, _ := FindDevice(OpenCL, "Radeon R9 Nano")

	cb, err := Alloc[float64](cudaDev, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Free()
	// CUDA: arbitrary pointer arithmetic is legal.
	v, err := cb.SubCUDA(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	v.Data()[0] = 42
	if cb.Data()[3] != 42 {
		t.Fatal("sub-buffer does not alias parent")
	}
	// CUDA-style sub-buffers are rejected on OpenCL buffers and vice versa.
	ob, err := Alloc[float64](oclDev, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer ob.Free()
	if _, err := ob.SubCUDA(0, 10); err == nil {
		t.Fatal("pointer arithmetic must be rejected on OpenCL buffers")
	}
	if _, err := cb.SubOpenCL(0, 10); err == nil {
		t.Fatal("clCreateSubBuffer must be rejected on CUDA buffers")
	}
	// OpenCL: origin must satisfy base alignment (256 bytes = 32 float64).
	if _, err := ob.SubOpenCL(3, 10); err == nil {
		t.Fatal("misaligned OpenCL sub-buffer must be rejected")
	}
	s, err := ob.SubOpenCL(32, 10)
	if err != nil {
		t.Fatal(err)
	}
	s.Data()[0] = 7
	if ob.Data()[32] != 7 {
		t.Fatal("OpenCL sub-buffer does not alias parent")
	}
	// Out-of-range views fail.
	if _, err := cb.SubCUDA(995, 10); err == nil {
		t.Fatal("out-of-range sub-buffer must fail")
	}
	// Sub-buffers cannot be freed.
	if err := v.Free(); err == nil {
		t.Fatal("freeing a sub-buffer must fail")
	}
}

// TestLaunchKernelExecutesAllItems pins the range contract: one body call
// per work-group, the ranges covering [0, Global) exactly once and none
// reaching past it, while the model still charges the padded global size —
// inline, and on a worker pool with fewer, as many or more workers than the
// device's parallelism.
func TestLaunchKernelExecutesAllItems(t *testing.T) {
	ResetPlatforms()
	d, _ := FindDevice(OpenCL, "FirePro S9170")
	t.Run("inline", func(t *testing.T) { testLaunchKernelExecutesAllItems(t, d, nil) })
	for _, c := range []struct{ par, workers int }{{1, 1}, {1, 3}, {4, 2}, {4, 4}, {4, 8}, {16, 16}} {
		pool := engine.NewWorkerPool(c.workers, "device test")
		t.Run(fmt.Sprintf("parallelism=%d/workers=%d", c.par, c.workers), func(t *testing.T) {
			testLaunchKernelExecutesAllItems(t, NewDevice(d.Desc, d.Framework, c.par), pool)
		})
		pool.Close()
	}
}

func testLaunchKernelExecutesAllItems(t *testing.T, d *Device, x Executor) {
	q := d.NewQueue(true)
	q.SetExecutor(x)
	const n, local = 1000, 64
	var hits [n]int32
	var calls, past atomic.Int64
	err := q.LaunchKernel(Launch{Global: n, Local: local}, Cost{Flops: 17 * n}, func(lo, hi int) {
		calls.Add(1)
		if lo%local != 0 || hi > n || hi-lo > local || lo >= hi {
			past.Add(1)
			return
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("work-item %d executed %d times", i, h)
		}
	}
	if past.Load() != 0 {
		t.Fatalf("%d ranges were not a group's items clipped to Global", past.Load())
	}
	if calls.Load() != 16 {
		t.Fatalf("%d body calls, want one per work-group (16)", calls.Load())
	}
	if q.Launches() != 1 {
		t.Fatalf("launch count %d", q.Launches())
	}
	if q.ModeledTime() <= 0 || q.HostTime() <= 0 {
		t.Fatal("clocks did not advance")
	}
	// 1000 padded to 1024: charged as the 1024 items a device would run.
	full := d.NewQueue(true)
	if err := full.LaunchKernel(Launch{Global: 1024, Local: local}, Cost{Flops: 17 * 1024}, func(int, int) {}); err != nil {
		t.Fatal(err)
	}
	if diff := q.ModeledTime() - full.ModeledTime(); diff < -1 || diff > 1 {
		t.Fatalf("padded launch modeled %v, the 1024-item launch %v: padding not charged", q.ModeledTime(), full.ModeledTime())
	}
}

func TestLaunchKernelErrors(t *testing.T) {
	ResetPlatforms()
	d, _ := FindDevice(OpenCL, "FirePro S9170")
	q := d.NewQueue(true)
	if err := q.LaunchKernel(Launch{Global: 0, Local: 64}, Cost{}, func(int, int) {}); err == nil {
		t.Fatal("expected error for zero global size")
	}
	if err := q.LaunchKernel(Launch{Global: 10, Local: 0}, Cost{}, func(int, int) {}); err == nil {
		t.Fatal("expected error for zero work-group size")
	}
}

func TestCopiesRoundTripAndAccount(t *testing.T) {
	ResetPlatforms()
	d, _ := FindDevice(OpenCL, "Radeon R9 Nano")
	q := d.NewQueue(false)
	b, err := Alloc[float64](d, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Free()
	src := make([]float64, 100)
	for i := range src {
		src[i] = float64(i)
	}
	if err := CopyToDevice(q, b, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 100)
	if err := CopyFromDevice(q, dst, b); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	if q.BytesTransferred() != 1600 {
		t.Fatalf("bytes transferred %d want 1600", q.BytesTransferred())
	}
	// Oversized copies fail.
	if err := CopyToDevice(q, b, make([]float64, 101)); err == nil {
		t.Fatal("expected error for oversized host→device copy")
	}
	if err := CopyFromDevice(q, make([]float64, 101), b); err == nil {
		t.Fatal("expected error for oversized device→host copy")
	}
}

func TestModeledTimeShape(t *testing.T) {
	// The modeled clock must reproduce the qualitative Fig. 4 behaviour:
	// throughput (flops/modeled time) grows with problem size and a GPU
	// beats the modeled CPU device at large sizes.
	ResetPlatforms()
	gpu, _ := FindDevice(OpenCL, "Radeon R9 Nano")

	tput := func(items int) float64 {
		q := gpu.NewQueue(true)
		flops := float64(items) * 17
		bytes := float64(items) * 12
		if err := q.LaunchKernel(Launch{Global: items, Local: 256},
			Cost{Flops: flops, Bytes: bytes, GroupSize: 256}, func(int, int) {}); err != nil {
			t.Fatal(err)
		}
		return flops / q.ModeledTime().Seconds()
	}
	small := tput(1_000)
	mid := tput(100_000)
	large := tput(10_000_000)
	if !(small < mid && mid < large) {
		t.Fatalf("throughput not increasing: %g, %g, %g", small, mid, large)
	}
	// Large-problem throughput must stay below the theoretical peak.
	if large >= gpu.Desc.PeakSPGFLOPS*1e9 {
		t.Fatalf("modeled throughput %g exceeds peak", large)
	}
}

func TestModeledDoublePrecisionSlower(t *testing.T) {
	ResetPlatforms()
	gpu, _ := FindDevice(OpenCL, "Quadro P5000")
	run := func(single bool) time.Duration {
		q := gpu.NewQueue(single)
		// Compute-bound kernel: no bytes.
		if err := q.LaunchKernel(Launch{Global: 1 << 20, Local: 256},
			Cost{Flops: 1e9, GroupSize: 256}, func(int, int) {}); err != nil {
			t.Fatal(err)
		}
		return q.ModeledTime()
	}
	if run(false) <= run(true) {
		t.Fatal("double precision must be modeled slower than single on a GPU")
	}
}

func TestModeledCUDAFasterThanOpenCLOnNVIDIA(t *testing.T) {
	ResetPlatforms()
	cudaDev, _ := FindDevice(CUDA, "Quadro P5000")
	oclDev, _ := FindDevice(OpenCL, "Quadro P5000")
	run := func(d *Device) time.Duration {
		q := d.NewQueue(true)
		if err := q.LaunchKernel(Launch{Global: 1 << 20, Local: 256},
			Cost{Flops: 1e9, GroupSize: 256}, func(int, int) {}); err != nil {
			t.Fatal(err)
		}
		return q.ModeledTime()
	}
	if run(cudaDev) >= run(oclDev) {
		t.Fatal("CUDA must be modeled faster than OpenCL on the same NVIDIA device")
	}
}

func TestFission(t *testing.T) {
	ResetPlatforms()
	cpu, _ := FindDevice(OpenCL, "Xeon E5-2680v4 x2")
	sub, err := cpu.Fission(8)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Desc.Cores != 8 {
		t.Fatalf("fissioned cores %d", sub.Desc.Cores)
	}
	if sub.Parallelism() > 8 {
		t.Fatalf("fissioned parallelism %d", sub.Parallelism())
	}
	if _, err := cpu.Fission(0); err == nil {
		t.Fatal("expected error for zero compute units")
	}
	if _, err := cpu.Fission(1000); err == nil {
		t.Fatal("expected error for too many compute units")
	}
}

func TestMaxPatternsPerGroup(t *testing.T) {
	// Codon models on AMD GPUs must reduce patterns per work-group
	// (§VII-B1): 61 states double precision needs 976 B/pattern of local
	// memory; 32 KiB holds only 33 patterns.
	got := RadeonR9Nano.MaxPatternsPerGroup(128, 61, false)
	if got >= 128 {
		t.Fatalf("AMD codon work-group not reduced: %d", got)
	}
	want := RadeonR9Nano.LocalMemBytes / LocalMemPerPattern(61, false)
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
	// NVIDIA has more local memory, so the reduction is milder.
	if nv := QuadroP5000.MaxPatternsPerGroup(128, 61, false); nv <= got {
		t.Fatalf("NVIDIA (%d) should allow more patterns than AMD (%d)", nv, got)
	}
	// Nucleotide single precision fits easily.
	if got := RadeonR9Nano.MaxPatternsPerGroup(256, 4, true); got != 256 {
		t.Fatalf("nucleotide work-group wrongly reduced to %d", got)
	}
	// CPU devices have no local-memory constraint.
	if got := XeonE5v4Dual.MaxPatternsPerGroup(1024, 61, false); got != 1024 {
		t.Fatalf("CPU work-group wrongly reduced to %d", got)
	}
}

func TestKindString(t *testing.T) {
	if KindGPU.String() != "GPU" || KindCPU.String() != "CPU" || KindAccelerator.String() != "Accelerator" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

func TestQueueResetTimers(t *testing.T) {
	ResetPlatforms()
	d, _ := FindDevice(OpenCL, "FirePro S9170")
	q := d.NewQueue(true)
	if err := q.LaunchKernel(Launch{Global: 100, Local: 32}, Cost{Flops: 100}, func(int, int) {}); err != nil {
		t.Fatal(err)
	}
	q.ResetTimers()
	if q.ModeledTime() != 0 || q.HostTime() != 0 || q.Launches() != 0 || q.BytesTransferred() != 0 {
		t.Fatal("timers not reset")
	}
}

func TestDryRunSkipsExecutionButAdvancesModel(t *testing.T) {
	ResetPlatforms()
	d, _ := FindDevice(OpenCL, "FirePro S9170")
	q := d.NewQueue(true)
	q.SetDryRun(true)
	executed := false
	if err := q.LaunchKernel(Launch{Global: 100, Local: 32}, Cost{Flops: 1e6}, func(int, int) {
		executed = true
	}); err != nil {
		t.Fatal(err)
	}
	if executed {
		t.Fatal("dry run must not execute kernel bodies")
	}
	if q.ModeledTime() <= 0 {
		t.Fatal("dry run must advance the modeled clock")
	}
	if q.Launches() != 1 {
		t.Fatalf("launch count %d", q.Launches())
	}
	// Back to normal execution.
	q.SetDryRun(false)
	if err := q.LaunchKernel(Launch{Global: 10, Local: 10}, Cost{Flops: 10}, func(int, int) {
		executed = true
	}); err != nil {
		t.Fatal(err)
	}
	if !executed {
		t.Fatal("execution must resume after dry run is disabled")
	}
}
