package nn

import "remapd/internal/tensor"

// Test-only views of the backward caches the layers keep, for the
// oracles in passes_test.go.

func (r *ReLU) Mask() []bool { return r.mask }

func (p *MaxPool2D) Argmax() []int { return p.argmax }

func (bn *BatchNorm2D) Caches() (xHat *tensor.Tensor, invStd []float32) { return bn.xHat, bn.invStd }
