//go:build amd64

package kernels

import "testing"

// forEachMicro runs f once with each kernel path the CPU supports as the
// active one: the portable Go always (microGo and the pooling loops), the
// AVX2 assembly (the microkernel and the pooling blocks) where the CPU has
// it.
func forEachMicro(t *testing.T, f func(t *testing.T)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, asm := range []bool{false, true} {
		if asm && !saved {
			continue
		}
		useAVX2 = asm
		t.Run(MicroKernelName(), f)
	}
}
