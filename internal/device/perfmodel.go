package device

import "time"

// The roofline performance model. Kernel execution on this machine is real
// (on host workers), but GPU-speed timing obviously is not, so each launch
// is also charged to a modeled clock:
//
//	rate  = min(peak·eff·occ, bandwidth·AI·occ)
//	time  = launchOverhead + groupOverhead·groups + flops_padded / rate
//
// with occupancy rising toward 1 as the global work size exceeds the
// device's saturation point (cores × wavesToSaturate). This reproduces the
// qualitative behaviour of Fig. 4: launch overhead dominating small pattern
// counts, memory-bound saturation for nucleotide models, and near-peak
// compute-bound throughput for codon models.

const (
	// wavesToSaturateGPU is how many resident work-items per core a GPU
	// needs before latency is hidden.
	wavesToSaturateGPU = 24
	// wavesToSaturateCPU is the same for CPU-class devices, which saturate
	// with far less oversubscription.
	wavesToSaturateCPU = 4
	// groupOverheadGPUNs models hardware work-group scheduling cost, which
	// is deeply pipelined on GPUs.
	groupOverheadGPUNs = 1
	// groupOverheadCPUNs models software work-group dispatch cost on
	// CPU-class OpenCL devices.
	groupOverheadCPUNs = 60
	// openCLOnNVIDIAEfficiency captures the framework overhead the paper
	// observes for OpenCL relative to CUDA on the same NVIDIA hardware
	// (Fig. 4, CUDA vs OpenCL-GPU on the Quadro P5000).
	openCLOnNVIDIAEfficiency = 0.88
	// transferLatencyUs is the fixed host↔device transfer latency.
	transferLatencyUs = 5
)

// modelKernel returns the modeled duration of one kernel launch. Padded
// work-items are charged at the same per-item cost as useful ones.
func (q *Queue) modelKernel(c Cost, paddedItems, usefulItems int) time.Duration {
	d := &q.dev.Desc
	if usefulItems <= 0 || c.Flops <= 0 {
		return time.Duration(d.LaunchOverhead * float64(time.Microsecond))
	}
	padRatio := float64(paddedItems) / float64(usefulItems)
	flops := c.Flops * padRatio
	bytes := c.Bytes * padRatio

	peak := d.PeakGFLOPS(q.single)
	eff := c.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	if q.dev.Framework == OpenCL && d.Vendor == "NVIDIA" {
		eff *= openCLOnNVIDIAEfficiency
	}

	waves := wavesToSaturateGPU
	groupOverheadNs := float64(groupOverheadGPUNs)
	if d.Kind != KindGPU {
		waves = wavesToSaturateCPU
		groupOverheadNs = groupOverheadCPUNs
	}
	saturation := float64(d.Cores * waves)
	occ := float64(paddedItems) / (float64(paddedItems) + saturation)

	computeRate := peak * 1e9 * eff * occ // FLOP/s
	rate := computeRate
	if bytes > 0 {
		// The kernel efficiency scales the achievable bandwidth as well:
		// instruction overhead (e.g. separate multiply and add without FMA)
		// throttles issue rate even for memory-bound kernels, which is why
		// Table IV still shows a small FMA gain in the bandwidth-bound
		// single-precision cases.
		memRate := d.BandwidthGBs * 1e9 * eff * occ * (flops / bytes)
		if memRate < rate {
			rate = memRate
		}
	}
	groups := paddedItems
	if c.GroupSize > 0 {
		groups = (paddedItems + c.GroupSize - 1) / c.GroupSize
	}
	ns := d.LaunchOverhead*1e3 + groupOverheadNs*float64(groups) + flops/rate*1e9
	return time.Duration(ns)
}

// modelTransfer returns the modeled duration of a host↔device copy.
func (q *Queue) modelTransfer(bytes float64) time.Duration {
	d := &q.dev.Desc
	ns := transferLatencyUs*1e3 + bytes/(d.TransferGBs*1e9)*1e9
	return time.Duration(ns)
}
