package gobeagle

import (
	"fmt"
	"runtime"

	"gobeagle/internal/cpuimpl"
	"gobeagle/internal/device"
)

// ResourceKind classifies a compute resource.
type ResourceKind int

// Resource kinds.
const (
	ResourceCPU ResourceKind = iota
	ResourceGPU
	ResourceAccelerator
)

// String returns a human-readable resource kind.
func (k ResourceKind) String() string {
	switch k {
	case ResourceCPU:
		return "CPU"
	case ResourceGPU:
		return "GPU"
	case ResourceAccelerator:
		return "Accelerator"
	default:
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
}

// Resource describes one compute resource an instance can be created on,
// the analogue of BEAGLE's beagleGetResourceList entries. Resource 0 is
// always the host CPU (driven by the CPU implementations); further entries
// are devices exposed by the installed CUDA and OpenCL drivers, including
// the same hardware under multiple drivers (§VII-B3).
type Resource struct {
	ID        int
	Name      string
	Kind      ResourceKind
	Framework string // "", "CUDA" or "OpenCL"
	Vendor    string
	Cores     int
	// dev is nil for the host CPU resource.
	dev *device.Device
}

// Device exposes the underlying simulated device, or nil for the host CPU
// resource; benchmark harnesses use it to read the modeled device clock.
func (r *Resource) Device() *device.Device { return r.dev }

// Implementations lists the implementation names selectable on this
// resource: every CPU execution strategy for the host resource (including
// the hybrid op×pattern scheduler), or the distinct kernel variants the
// registry builds on the device with and without FlagKernelGPU.
func (r *Resource) Implementations() []string {
	if r.dev == nil {
		modes := cpuimpl.Modes()
		out := make([]string, len(modes))
		for i, m := range modes {
			out[i] = m.String()
		}
		return out
	}
	var out []string
	for _, flags := range []Flags{0, FlagKernelGPU} {
		if name := accelVariant(r.dev, flags).String(); len(out) == 0 || out[0] != name {
			out = append(out, name)
		}
	}
	return out
}

// String renders the resource for listings.
func (r *Resource) String() string {
	if r.Framework == "" {
		return fmt.Sprintf("#%d %s [%s, %d threads]", r.ID, r.Name, r.Kind, r.Cores)
	}
	return fmt.Sprintf("#%d %s [%s, %s, %s, %d cores]", r.ID, r.Name, r.Kind, r.Framework, r.Vendor, r.Cores)
}

// ResourceList enumerates all available compute resources: the host CPU
// first, then every device of every installed driver platform.
func ResourceList() []*Resource {
	out := []*Resource{{
		ID:    0,
		Name:  "CPU (host)",
		Kind:  ResourceCPU,
		Cores: runtime.GOMAXPROCS(0),
	}}
	for _, d := range device.AllDevices() {
		kind := ResourceGPU
		switch d.Desc.Kind {
		case device.KindCPU:
			kind = ResourceCPU
		case device.KindAccelerator:
			kind = ResourceAccelerator
		}
		out = append(out, &Resource{
			ID:        len(out),
			Name:      d.Desc.Name,
			Kind:      kind,
			Framework: string(d.Framework),
			Vendor:    d.Desc.Vendor,
			Cores:     d.Desc.Cores,
			dev:       d,
		})
	}
	return out
}

// FindResource returns the first resource whose name and framework match;
// framework "" matches any.
func FindResource(name, framework string) (*Resource, error) {
	for _, r := range ResourceList() {
		if r.Name == name && (framework == "" || r.Framework == framework) {
			return r, nil
		}
	}
	return nil, fmt.Errorf("gobeagle: no resource named %q under framework %q", name, framework)
}
