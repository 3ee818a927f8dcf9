//go:build amd64

package kernels

import "testing"

// forEachMicro runs f once with each microkernel the CPU supports as the
// active one: microGo always, the AVX2 assembly where the CPU has it.
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
