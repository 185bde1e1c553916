// Package device is the accelerator substrate: a simulated parallel-device
// framework with the architecture of CUDA and OpenCL. It provides device
// enumeration through an installable-client-driver-style loader, explicit
// device buffers with host↔device copies, sub-buffer addressing in both the
// CUDA style (pointer arithmetic) and the OpenCL style (sub-buffer objects
// with alignment rules), command queues, and work-group kernel launches.
//
// Kernels really execute — work-items run the shared kernel bodies from
// internal/kernels on host workers standing in for compute units — so all
// correctness is end-to-end testable. Because this machine has no GPU, each
// queue additionally accumulates *modeled* execution time from a roofline
// performance model parameterized by the published specifications of the
// paper's devices (Table II), which is what the benchmark harness reports
// for GPU devices; CPU-class devices report measured wall time.
package device

import "fmt"

// Kind classifies a compute device.
type Kind int

// Device kinds.
const (
	KindGPU Kind = iota
	KindCPU
	KindAccelerator // manycore accelerator (Xeon Phi class)
)

// String returns a human-readable device kind.
func (k Kind) String() string {
	switch k {
	case KindGPU:
		return "GPU"
	case KindCPU:
		return "CPU"
	case KindAccelerator:
		return "Accelerator"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Descriptor holds the hardware characteristics that drive both the
// simulated execution (local memory limits, FMA availability) and the
// roofline performance model (cores, bandwidth, peak throughput).
type Descriptor struct {
	Name           string
	Vendor         string
	Kind           Kind
	Cores          int     // processing cores / shader units
	MemoryBytes    int64   // global memory
	BandwidthGBs   float64 // device global memory bandwidth, GB/s
	PeakSPGFLOPS   float64 // theoretical single-precision peak
	DPRatio        float64 // double-precision peak as a fraction of SP
	LocalMemBytes  int     // local/shared memory per compute unit
	SupportsFMA    bool    // fast fused multiply–add (FP_FAST_FMA)
	BaseAlign      int     // sub-buffer origin alignment requirement, bytes
	LaunchOverhead float64 // per-kernel-launch latency, microseconds
	TransferGBs    float64 // host↔device transfer bandwidth, GB/s
}

// The three GPUs of the paper's Table II, plus the two CPU-class platforms
// of Table I and the Xeon Phi 7210 used in §VIII.
var (
	// QuadroP5000 is the NVIDIA Quadro P5000 (Table II column 1).
	QuadroP5000 = Descriptor{
		Name: "Quadro P5000", Vendor: "NVIDIA", Kind: KindGPU,
		Cores: 2560, MemoryBytes: 16 << 30, BandwidthGBs: 288,
		PeakSPGFLOPS: 8900, DPRatio: 1.0 / 32,
		LocalMemBytes: 96 << 10, SupportsFMA: true, BaseAlign: 256,
		LaunchOverhead: 8, TransferGBs: 12,
	}
	// RadeonR9Nano is the AMD Radeon R9 Nano (Table II column 2).
	RadeonR9Nano = Descriptor{
		Name: "Radeon R9 Nano", Vendor: "AMD", Kind: KindGPU,
		Cores: 4096, MemoryBytes: 4 << 30, BandwidthGBs: 512,
		PeakSPGFLOPS: 8192, DPRatio: 1.0 / 16,
		LocalMemBytes: 32 << 10, SupportsFMA: true, BaseAlign: 256,
		LaunchOverhead: 12, TransferGBs: 12,
	}
	// FireProS9170 is the AMD FirePro S9170 (Table II column 3).
	FireProS9170 = Descriptor{
		Name: "FirePro S9170", Vendor: "AMD", Kind: KindGPU,
		Cores: 2816, MemoryBytes: 32 << 30, BandwidthGBs: 320,
		PeakSPGFLOPS: 5240, DPRatio: 1.0 / 2,
		LocalMemBytes: 32 << 10, SupportsFMA: true, BaseAlign: 256,
		LaunchOverhead: 12, TransferGBs: 12,
	}
	// XeonE5v4Dual is the dual Intel Xeon E5-2680v4 host of system 2
	// (Table I): 2×14 cores, 56 hardware threads at 2.4 GHz.
	XeonE5v4Dual = Descriptor{
		Name: "Xeon E5-2680v4 x2", Vendor: "Intel", Kind: KindCPU,
		Cores: 56, MemoryBytes: 256 << 30, BandwidthGBs: 153,
		PeakSPGFLOPS: 2150, DPRatio: 0.5,
		LocalMemBytes: 0, SupportsFMA: true, BaseAlign: 64,
		LaunchOverhead: 2, TransferGBs: 50,
	}
	// XeonPhi7210 is the Intel Xeon Phi 7210 manycore CPU of §VIII.
	XeonPhi7210 = Descriptor{
		Name: "Xeon Phi 7210", Vendor: "Intel", Kind: KindAccelerator,
		Cores: 256, MemoryBytes: 16 << 30, BandwidthGBs: 400,
		PeakSPGFLOPS: 5324, DPRatio: 0.5,
		LocalMemBytes: 0, SupportsFMA: true, BaseAlign: 64,
		LaunchOverhead: 4, TransferGBs: 50,
	}
)

// PeakGFLOPS returns the theoretical peak throughput at the given precision:
// the single-precision peak, derated by DPRatio for double precision. Every
// consumer of the peak — the roofline model and default load-balancing
// shares alike — must go through this so a 1/32-DP-ratio consumer GPU is
// never weighted by its single-precision figure in a double-precision run.
func (d *Descriptor) PeakGFLOPS(single bool) float64 {
	if single {
		return d.PeakSPGFLOPS
	}
	return d.PeakSPGFLOPS * d.DPRatio
}

// LocalMemPerPattern returns the local-memory bytes one pattern of a
// likelihood work-group consumes (child partials staging for both children),
// used to derive the per-device patterns-per-work-group limit that §VII-B1
// describes for codon models on AMD GPUs.
func LocalMemPerPattern(stateCount int, single bool) int {
	elem := 8
	if single {
		elem = 4
	}
	return 2 * stateCount * elem
}

// MaxPatternsPerGroup returns how many patterns fit in one work-group given
// the device's local memory, or the requested size when the device has no
// local-memory constraint (CPU-class devices, which let the compiler manage
// caching, §VII-B2).
func (d *Descriptor) MaxPatternsPerGroup(requested, stateCount int, single bool) int {
	if d.LocalMemBytes == 0 {
		return requested
	}
	per := LocalMemPerPattern(stateCount, single)
	max := d.LocalMemBytes / per
	if max < 1 {
		max = 1
	}
	if requested < max {
		return requested
	}
	return max
}
