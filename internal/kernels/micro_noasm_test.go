//go:build !amd64

package kernels

import "testing"

// forEachMicro runs f with the portable kernels, the only ones off
// amd64.
func forEachMicro(t *testing.T, f func(t *testing.T)) { t.Run(MicroKernelName(), f) }
