package ops

import (
	"repro/internal/tensor"
)

// resizeK implements nearest-neighbor spatial up/down-sampling of NCHW
// input by integer attribute factors "scale_h"/"scale_w" (default 2), the
// subset of ONNX Resize that feature-pyramid necks (Yolo, Retinanet) use.
func resizeK(in []*tensor.Tensor, attrs Attrs, alc tensor.Allocator) ([]*tensor.Tensor, error) {
	if err := need("Resize", in, 1, 1); err != nil {
		return nil, err
	}
	x := in[0]
	xs := x.Shape()
	if xs.Rank() != 4 {
		return nil, argErr("Resize", "want 4-D input, got %v", xs)
	}
	scaleH := attrs.Int("scale_h", 2)
	scaleW := attrs.Int("scale_w", 2)
	if scaleH < 1 || scaleW < 1 {
		return nil, argErr("Resize", "scales must be >= 1, got %d x %d", scaleH, scaleW)
	}
	n, c, h, w := xs[0], xs[1], xs[2], xs[3]
	oh, ow := h*scaleH, w*scaleW
	out := tensor.ZerosIn(alc, n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	tensor.ParallelFor(n*c, 4, func(idx int) {
		src := idx * h * w
		dst := idx * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy := oy / scaleH
			rowS := src + iy*w
			rowD := dst + oy*ow
			for ox := 0; ox < ow; ox++ {
				od[rowD+ox] = xd[rowS+ox/scaleW]
			}
		}
	})
	return []*tensor.Tensor{out}, nil
}
