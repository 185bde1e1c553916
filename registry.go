package gobeagle

import (
	"fmt"
	"sort"
	"sync"

	"gobeagle/internal/accelimpl"
	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/device"
	"gobeagle/internal/engine"
)

// Factory builds an engine for a (resource, flags) request, or reports that
// it does not apply. It is the plugin hook of the implementation-management
// layer: new implementations register themselves and become available to
// client programs without changes to the core library (§IV-C).
type Factory struct {
	// Name identifies the factory in diagnostics.
	Name string
	// Priority orders factories; higher priority is consulted first.
	Priority int
	// Build returns (nil, nil) when the factory does not apply to the
	// request, an engine on success, or an error to abort creation.
	Build func(cfg engine.Config, rsc *Resource, flags Flags) (engine.Engine, error)
}

var registry struct {
	mu        sync.Mutex
	factories []*Factory
}

// RegisterFactory installs an implementation factory; higher-priority
// factories are consulted first.
func RegisterFactory(f *Factory) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.factories = append(registry.factories, f)
	sort.SliceStable(registry.factories, func(i, j int) bool {
		return registry.factories[i].Priority > registry.factories[j].Priority
	})
}

// Factories returns the installed factories in consultation order.
func Factories() []*Factory {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return append([]*Factory(nil), registry.factories...)
}

// buildEngine consults the registry for the first applicable factory.
func buildEngine(cfg engine.Config, rsc *Resource, flags Flags) (engine.Engine, error) {
	for _, f := range Factories() {
		eng, err := f.Build(cfg, rsc, flags)
		if err != nil {
			return nil, fmt.Errorf("gobeagle: factory %s: %w", f.Name, err)
		}
		if eng != nil {
			return eng, nil
		}
	}
	return nil, fmt.Errorf("gobeagle: no implementation available for resource %q with flags %v", rsc.Name, flags)
}

// cpuMode maps flags to the CPU execution strategy. A threading flag wins
// over FlagVectorSSE without losing it: every threaded strategy runs the
// state-count-specialised kernels the SSE mode does. FlagVectorNone asks for
// the serial reference; with none of these flags an instance gets
// cpuimpl.Default.
func cpuMode(flags Flags) cpuimpl.Mode {
	switch {
	case flags&FlagThreadingThreadPoolHybrid != 0:
		return cpuimpl.ThreadPoolHybrid
	case flags&FlagThreadingThreadPool != 0:
		return cpuimpl.ThreadPool
	case flags&FlagThreadingThreadCreate != 0:
		return cpuimpl.ThreadCreate
	case flags&FlagThreadingFutures != 0:
		return cpuimpl.Futures
	case flags&FlagVectorSSE != 0:
		return cpuimpl.SSE
	case flags&FlagVectorNone != 0:
		return cpuimpl.Serial
	default:
		return cpuimpl.Default
	}
}

// accelVariant picks the accelerator kernel variant for a device: CUDA on a
// CUDA device, the GPU-style kernels on a GPU-class OpenCL device or when
// FlagKernelGPU asks for them (Table V's "OpenCL-GPU on Xeon" row), and the
// loop-over-states x86 kernels on any other CPU-class OpenCL device.
func accelVariant(dev *device.Device, flags Flags) accelimpl.Variant {
	switch {
	case dev.Framework == device.CUDA:
		return accelimpl.CUDA
	case dev.Desc.Kind == device.KindGPU, flags&FlagKernelGPU != 0:
		return accelimpl.OpenCLGPU
	default:
		return accelimpl.OpenCLX86
	}
}

func init() {
	// Host CPU implementations.
	RegisterFactory(&Factory{
		Name:     "cpu",
		Priority: 0,
		Build: func(cfg engine.Config, rsc *Resource, flags Flags) (engine.Engine, error) {
			if rsc.Device() != nil {
				return nil, nil
			}
			return cpuimpl.New(cfg, cpuMode(flags))
		},
	})
	// Accelerator implementations over the device framework.
	RegisterFactory(&Factory{
		Name:     "accel",
		Priority: 10,
		Build: func(cfg engine.Config, rsc *Resource, flags Flags) (engine.Engine, error) {
			dev := rsc.Device()
			if dev == nil {
				return nil, nil
			}
			// Honor restricted thread counts on CPU-class devices through
			// OpenCL device fission (Fig. 5).
			if cfg.Threads > 0 && dev.Desc.Kind != device.KindGPU && cfg.Threads < dev.Desc.Cores {
				sub, err := dev.Fission(cfg.Threads)
				if err != nil {
					return nil, err
				}
				dev = sub
			}
			return accelimpl.New(cfg, accelVariant(dev, flags), dev)
		},
	})
}
