package benchmarks

import (
	"math"
	"time"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/device"
	"gobeagle/internal/flops"
)

// CPUModel is the analytic throughput model for the CPU implementations on
// the paper's reference host (dual Xeon E5-2680v4, Table I system 2). The
// structure is first-principles — per-thread compute rate, shared memory
// bandwidth, cache capacity, and per-strategy dispatch overheads — and four
// constants are calibrated once against Table III (noted below); everything
// else follows from the hardware descriptor.
type CPUModel struct {
	Desc device.Descriptor
	// KernelEfficiency is the fraction of per-thread peak the effective-FLOPS
	// measure credits the serial kernel with. Calibrated: Table III's serial
	// column (35.8 GFLOPS) against the E5-2680v4 per-thread peak (38.4).
	KernelEfficiency float64
	// L3Bytes is the combined last-level cache; beyond it the serial rate
	// degrades (Table III, 64–128 tips).
	L3Bytes float64
	// CacheFloor is the serial rate fraction retained when the working set
	// far exceeds cache. Calibrated to Table III's 64-tip row.
	CacheFloor float64
	// DRAMFraction is the fraction of the kernels' nominal traffic that
	// reaches DRAM (the rest hits cache); sets where multithreaded scaling
	// saturates (Fig. 5, ≈27 threads).
	DRAMFraction float64
	// ThreadCreateNs is the per-thread create+join cost charged to the
	// thread-create strategy on every operation (§VI-B).
	ThreadCreateNs float64
	// PoolDispatchNs is the per-chunk dispatch cost of the persistent
	// thread pool (§VI-C).
	PoolDispatchNs float64
	// FutureOverheadFrac is the per-operation serialization overhead of the
	// futures strategy, as a fraction of one serial operation (§VI-A).
	FutureOverheadFrac float64
	// SSESpeedup is the 4-state vectorized kernel's gain over the plain
	// serial kernel at equal precision.
	SSESpeedup float64
	// BandwidthEff is the fraction of the descriptor's peak memory
	// bandwidth this code actually achieves on the platform (1.0 for the
	// Xeon; far less on the un-tuned Xeon Phi, §VIII-A1).
	BandwidthEff float64
}

// DefaultCPUModel returns the model for the paper's system 2.
func DefaultCPUModel() CPUModel {
	return CPUModel{
		Desc:               device.XeonE5v4Dual,
		KernelEfficiency:   0.93,
		L3Bytes:            50e6,
		CacheFloor:         0.40,
		DRAMFraction:       0.20,
		ThreadCreateNs:     1000,
		PoolDispatchNs:     150,
		FutureOverheadFrac: 0.15,
		SSESpeedup:         1.6,
		BandwidthEff:       1.0,
	}
}

// workingSetBytes is the resident partials footprint of one evaluation.
func (m CPUModel) workingSetBytes(p *Problem, single bool) float64 {
	elem := 8.0
	if single {
		elem = 4
	}
	return float64(p.Tree.NodeCount()) * float64(p.Dims.PartialsLen()) * elem
}

// stateEfficiencyExp controls how per-thread kernel throughput falls with
// the state count: larger state spaces stress registers and cache lines and
// defeat the 4-wide vector paths. Calibrated against Fig. 4's threaded
// series (≈330 GFLOPS nucleotide vs ≈110 GFLOPS codon on the dual Xeon).
const stateEfficiencyExp = 0.85

// SerialRateGF returns the modeled single-thread throughput in effective
// GFLOPS, including the cache-capacity degradation on large trees and the
// state-count efficiency falloff.
func (m CPUModel) SerialRateGF(p *Problem, single bool) float64 {
	base := m.Desc.PeakSPGFLOPS / float64(m.Desc.Cores) * m.KernelEfficiency
	if !single {
		base *= m.Desc.DPRatio
	}
	if s := float64(p.Dims.StateCount); s > 4 {
		base *= math.Pow(4/s, stateEfficiencyExp)
	}
	ws := m.workingSetBytes(p, single)
	r := ws / m.L3Bytes
	factor := m.CacheFloor + (1-m.CacheFloor)/(1+math.Pow(r, 4))
	return base * factor
}

// opDRAMSeconds is the modeled DRAM-bandwidth floor of one operation when
// every hardware thread participates. When the working set overflows the
// last-level cache, a growing share of the nominal traffic reaches DRAM,
// which is what pulls the threaded throughput down again on 128-tip trees
// (Table III).
func (m CPUModel) opDRAMSeconds(p *Problem, single bool) float64 {
	elem := 8.0
	if single {
		elem = 4
	}
	ws := m.workingSetBytes(p, single)
	r := ws / (2.5 * m.L3Bytes)
	frac := m.DRAMFraction * (1 + r*r*r*r)
	if frac > 0.78 {
		frac = 0.78
	}
	bytes := 3 * float64(p.Dims.StateCount) * elem *
		float64(p.Dims.PatternCount) * float64(p.Dims.CategoryCount) * frac
	return bytes / (m.Desc.BandwidthGBs * m.BandwidthEff * 1e9)
}

// EvalTime returns the modeled duration of one full-tree evaluation of the
// partial-likelihoods function under the given CPU strategy with w threads.
func (m CPUModel) EvalTime(mode cpuimpl.Mode, w int, p *Problem, single bool) time.Duration {
	if w < 1 {
		w = 1
	}
	rate := m.SerialRateGF(p, single) * 1e9
	if mode == cpuimpl.SSE && p.Dims.StateCount == 4 {
		rate *= m.SSESpeedup
	}
	opSec := flops.PartialsOp(p.Dims) / rate
	nOps := float64(p.OpCount())
	bwSec := m.opDRAMSeconds(p, single)

	var total float64
	switch mode {
	case cpuimpl.Serial, cpuimpl.SSE:
		total = nOps * opSec
	case cpuimpl.Futures:
		// Concurrency only across independent operations of each level;
		// each operation remains single-threaded, plus a per-operation
		// spawn/serialization cost.
		for _, width := range p.LevelWidths() {
			total += math.Ceil(float64(width)/float64(w)) * opSec
		}
		total += nOps * m.FutureOverheadFrac * opSec
	case cpuimpl.ThreadCreate:
		if p.Dims.PatternCount < cpuimpl.DefaultMinPatterns || w == 1 {
			total = nOps * opSec
			break
		}
		per := math.Max(opSec/float64(w), bwSec) + float64(w)*m.ThreadCreateNs*1e-9
		total = nOps * per
	case cpuimpl.ThreadPool:
		if p.Dims.PatternCount < cpuimpl.DefaultMinPatterns || w == 1 {
			total = nOps * opSec
			break
		}
		per := math.Max(opSec/float64(w), bwSec) + float64(w)*m.PoolDispatchNs*1e-9
		total = nOps * per
	case cpuimpl.ThreadPoolHybrid:
		// The paper-style per-call hybrid schedule: operation- and
		// pattern-level parallelism compose on the shared pool, each
		// dependency level running width×chunks tasks, so a level is bounded
		// by its compute spread over the busy workers, by the DRAM floor of
		// its concurrent operations, and by per-task dispatch. Unlike the
		// plain pool there is no whole-problem pattern threshold: only a lone
		// small operation stays serial.
		if w == 1 {
			total = nOps * opSec
			break
		}
		pat := p.Dims.PatternCount
		for _, width := range p.LevelWidths() {
			if width == 1 && pat < cpuimpl.DefaultMinPatterns {
				total += opSec
				continue
			}
			chunks := hybridChunks(width, pat, w)
			tasks := float64(width * chunks)
			busy := math.Min(float64(w), tasks)
			total += math.Max(float64(width)*opSec/busy, float64(width)*bwSec) +
				tasks*m.PoolDispatchNs*1e-9
		}
	}
	return time.Duration(total * float64(time.Second))
}

// hybridChunks returns how many pattern chunks the modeled hybrid schedule
// splits each operation of a level into: enough tasks to cover the worker
// count, bounded so that no chunk spans fewer than cpuimpl.HybridMinChunk
// patterns (and always at least one). This is the paper-style per-level
// schedule the Table III rows model; the engine itself runs pattern slabs.
func hybridChunks(levelWidth, patterns, threads int) int {
	chunks := (threads + levelWidth - 1) / levelWidth
	if maxChunks := (patterns + cpuimpl.HybridMinChunk - 1) / cpuimpl.HybridMinChunk; chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// ThroughputGF returns the modeled throughput of the strategy in effective
// GFLOPS.
func (m CPUModel) ThroughputGF(mode cpuimpl.Mode, w int, p *Problem, single bool) float64 {
	t := m.EvalTime(mode, w, p, single)
	return flops.GFLOPS(p.FlopsPerEval(), t)
}

// PhiCPUModel returns a CPU threading model for the Xeon Phi 7210: many
// slow cores with high aggregate bandwidth, plus the heavier per-core
// overheads that give the Phi its weak small-problem behaviour in Fig. 4.
func PhiCPUModel() CPUModel {
	m := DefaultCPUModel()
	m.Desc = device.XeonPhi7210
	m.KernelEfficiency = 0.15 // unoptimized for this platform (§VIII-A1)
	m.BandwidthEff = 0.25
	m.PoolDispatchNs = 300
	m.ThreadCreateNs = 2500
	return m
}
