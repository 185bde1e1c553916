package device

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Device is one simulated compute device. Kernels launched on its queues
// execute on at most Parallelism host workers standing in for compute units;
// memory lives in explicitly allocated device buffers.
type Device struct {
	Desc        Descriptor
	Framework   FrameworkName
	parallelism int          // host workers emulating compute units
	allocated   atomic.Int64 // bytes currently allocated
}

// Parallelism returns the host-side execution width: how many workers a
// launch uses at most.
func (d *Device) Parallelism() int { return d.parallelism }

// AllocatedBytes returns the bytes currently allocated on the device.
func (d *Device) AllocatedBytes() int64 { return d.allocated.Load() }

// Reserve is the device's one memory accounting: a positive delta claims
// bytes and fails, claiming nothing, when the device's memory would be
// exceeded; a negative delta releases them. Buffer allocation goes through it,
// and so does an engine whose buffers live in a store the device does not
// hand out. A claim that does not fit is never counted, so it cannot fail a
// concurrent claim that does.
func (d *Device) Reserve(delta int64) error {
	for {
		used := d.allocated.Load()
		if delta > 0 && used+delta > d.Desc.MemoryBytes {
			return fmt.Errorf("device: out of memory on %s (%d bytes requested, %d in use, %d total)",
				d.Desc.Name, delta, used, d.Desc.MemoryBytes)
		}
		if d.allocated.CompareAndSwap(used, used+delta) {
			return nil
		}
	}
}

// Fission returns a sub-device restricted to n compute units, the OpenCL
// device-fission feature the paper uses for the multicore scaling benchmark
// (Fig. 5). The sub-device shares no allocation accounting with its parent.
func (d *Device) Fission(n int) (*Device, error) {
	if n < 1 || n > d.Desc.Cores {
		return nil, fmt.Errorf("device: cannot fission %d of %d compute units", n, d.Desc.Cores)
	}
	sub := d.Desc
	sub.Cores = n
	// Peak compute scales with the granted compute units; memory bandwidth
	// is shared machine-wide and left unscaled (the saturation behaviour of
	// Fig. 5 comes from exactly this asymmetry).
	sub.PeakSPGFLOPS = d.Desc.PeakSPGFLOPS * float64(n) / float64(d.Desc.Cores)
	sub.Name = fmt.Sprintf("%s (%d CU)", d.Desc.Name, n)
	// Memory bandwidth on CPU-class devices scales sublinearly with cores
	// and saturates; the perf model handles that, so the descriptor keeps
	// full bandwidth.
	par := n
	if par > d.parallelism {
		par = d.parallelism
	}
	return NewDevice(sub, d.Framework, par), nil
}

// Elem constrains the element types device buffers can hold.
type Elem interface {
	~float32 | ~float64 | ~int32
}

// Buffer is a typed region of device memory. Host code must move data
// through the explicit copy calls; kernels access buffers directly.
type Buffer[T Elem] struct {
	dev    *Device
	data   []T
	origin int  // element offset into the parent allocation
	sub    bool // true for sub-buffer views
}

// Alloc allocates a device buffer of n elements.
func Alloc[T Elem](d *Device, n int) (*Buffer[T], error) {
	if n <= 0 {
		return nil, errors.New("device: allocation size must be positive")
	}
	var zero T
	if err := d.Reserve(int64(n) * int64(elemSize(zero))); err != nil {
		return nil, err
	}
	return &Buffer[T]{dev: d, data: make([]T, n)}, nil
}

func elemSize[T Elem](v T) int {
	switch any(v).(type) {
	case float32, int32:
		return 4
	default:
		return 8
	}
}

// Free releases the buffer's memory accounting. Freeing a sub-buffer is an
// error; freeing twice is an error.
func (b *Buffer[T]) Free() error {
	if b.sub {
		return errors.New("device: cannot free a sub-buffer view")
	}
	if b.data == nil {
		return errors.New("device: double free")
	}
	var zero T
	bytes := int64(len(b.data)) * int64(elemSize(zero))
	b.data = nil
	return b.dev.Reserve(-bytes)
}

// Len returns the element count.
func (b *Buffer[T]) Len() int { return len(b.data) }

// Data exposes the raw storage to kernel launches. Host code outside kernel
// bodies must use the copy calls instead.
func (b *Buffer[T]) Data() []T { return b.data }

// SubCUDA returns a view of [origin, origin+n) using CUDA-style pointer
// arithmetic: any element offset is legal (§VII-A).
func (b *Buffer[T]) SubCUDA(origin, n int) (*Buffer[T], error) {
	if b.dev.Framework != CUDA {
		return nil, fmt.Errorf("device: pointer-arithmetic sub-buffers require the CUDA framework, not %s", b.dev.Framework)
	}
	return b.subView(origin, n)
}

// SubOpenCL returns a view of [origin, origin+n) in the manner of
// clCreateSubBuffer: the byte origin must be aligned to the device's base
// address alignment (§VII-A).
func (b *Buffer[T]) SubOpenCL(origin, n int) (*Buffer[T], error) {
	if b.dev.Framework != OpenCL {
		return nil, fmt.Errorf("device: clCreateSubBuffer requires the OpenCL framework, not %s", b.dev.Framework)
	}
	var zero T
	if byteOrigin := origin * elemSize(zero); byteOrigin%b.dev.Desc.BaseAlign != 0 {
		return nil, fmt.Errorf("device: sub-buffer origin %d bytes violates %d-byte base alignment of %s",
			byteOrigin, b.dev.Desc.BaseAlign, b.dev.Desc.Name)
	}
	return b.subView(origin, n)
}

func (b *Buffer[T]) subView(origin, n int) (*Buffer[T], error) {
	if b.data == nil {
		return nil, errors.New("device: sub-buffer of freed buffer")
	}
	if origin < 0 || n <= 0 || origin+n > len(b.data) {
		return nil, fmt.Errorf("device: sub-buffer [%d,%d) out of range of %d elements", origin, origin+n, len(b.data))
	}
	return &Buffer[T]{dev: b.dev, data: b.data[origin : origin+n], origin: b.origin + origin, sub: true}, nil
}
