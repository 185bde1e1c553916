package device

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// FrameworkName identifies a parallel computing framework.
type FrameworkName string

// The two frameworks the library shares kernels between.
const (
	CUDA   FrameworkName = "CUDA"
	OpenCL FrameworkName = "OpenCL"
)

// Platform is an OpenCL-style platform: one vendor driver exposing a set of
// devices. The CUDA framework exposes a single NVIDIA platform.
type Platform struct {
	Framework FrameworkName
	Vendor    string // driver vendor, e.g. "NVIDIA", "AMD", "Intel"
	Version   string // driver version string
	devices   []*Device
}

// Devices returns the platform's devices.
func (p *Platform) Devices() []*Device { return p.devices }

// icd is the installable-client-driver-style loader state: every registered
// platform is visible, so multiple driver implementations for the same
// hardware can coexist and be selected explicitly (§VII-B3).
var icd struct {
	mu        sync.Mutex
	platforms []*Platform
}

// RegisterPlatform installs a platform into the ICD loader.
func RegisterPlatform(p *Platform) {
	icd.mu.Lock()
	defer icd.mu.Unlock()
	icd.platforms = append(icd.platforms, p)
}

// Platforms returns all installed platforms, optionally filtered by
// framework ("" for all).
func Platforms(fw FrameworkName) []*Platform {
	icd.mu.Lock()
	defer icd.mu.Unlock()
	var out []*Platform
	for _, p := range icd.platforms {
		if fw == "" || p.Framework == fw {
			out = append(out, p)
		}
	}
	return out
}

// ResetPlatforms clears the ICD registry and reinstalls the default drivers;
// used by tests and by the default initialization.
func ResetPlatforms() {
	icd.mu.Lock()
	icd.platforms = nil
	icd.mu.Unlock()
	registerDefaultPlatforms()
}

// NewDevice creates a simulated device owned by a framework driver. The
// hostParallelism bounds how many host workers stand in for the device's
// compute units (0 = GOMAXPROCS).
func NewDevice(desc Descriptor, fw FrameworkName, hostParallelism int) *Device {
	if hostParallelism <= 0 {
		hostParallelism = runtime.GOMAXPROCS(0)
	}
	return &Device{
		Desc:        desc,
		Framework:   fw,
		parallelism: hostParallelism,
	}
}

// registerDefaultPlatforms installs the simulated drivers matching the
// paper's two benchmark systems (Table I): a CUDA driver for the NVIDIA GPU,
// OpenCL drivers from NVIDIA, AMD and Intel.
func registerDefaultPlatforms() {
	RegisterPlatform(&Platform{
		Framework: CUDA, Vendor: "NVIDIA", Version: "375.26",
		devices: []*Device{NewDevice(QuadroP5000, CUDA, 0)},
	})
	RegisterPlatform(&Platform{
		Framework: OpenCL, Vendor: "NVIDIA", Version: "375.26",
		devices: []*Device{NewDevice(QuadroP5000, OpenCL, 0)},
	})
	RegisterPlatform(&Platform{
		Framework: OpenCL, Vendor: "AMD", Version: "1912.5",
		devices: []*Device{
			NewDevice(RadeonR9Nano, OpenCL, 0),
			NewDevice(FireProS9170, OpenCL, 0),
		},
	})
	RegisterPlatform(&Platform{
		Framework: OpenCL, Vendor: "Intel", Version: "1.2.0",
		devices: []*Device{
			NewDevice(XeonE5v4Dual, OpenCL, 0),
			NewDevice(XeonPhi7210, OpenCL, 0),
		},
	})
}

func init() { registerDefaultPlatforms() }

// FindDevice locates a device by framework and name across all installed
// platforms.
func FindDevice(fw FrameworkName, name string) (*Device, error) {
	for _, p := range Platforms(fw) {
		for _, d := range p.devices {
			if d.Desc.Name == name {
				return d, nil
			}
		}
	}
	return nil, fmt.Errorf("device: no %s device named %q", fw, name)
}

// AllDevices lists every installed device sorted by framework then name,
// for resource enumeration.
func AllDevices() []*Device {
	var out []*Device
	for _, p := range Platforms("") {
		out = append(out, p.devices...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Framework != out[j].Framework {
			return out[i].Framework < out[j].Framework
		}
		return out[i].Desc.Name < out[j].Desc.Name
	})
	return out
}
