package nn

import "remapd/internal/tensor"

// SGD is stochastic gradient descent with classical momentum and per-tensor
// gradient-norm clipping. After every step it notifies the network's fabric that
// weights were rewritten, which is how the ReRAM substrate accounts for
// write endurance and re-clamps stored conductances.
type SGD struct {
	LR           float64
	Momentum     float64
	GradClip     float64 // max L2 norm per parameter tensor; 0 disables
	velocity     map[string]*tensor.Tensor
	net          *Network
	stepsApplied int

	// params/mvmNames cache the network's (static) parameter and MVM-layer
	// lists so the per-step hot loop does not rebuild them.
	params   []*Param
	mvmNames []string
}

// NewSGD builds an optimizer over net's parameters.
func NewSGD(net *Network, lr, momentum float64) *SGD {
	return &SGD{
		LR:       lr,
		Momentum: momentum,
		GradClip: 5,
		velocity: make(map[string]*tensor.Tensor),
		net:      net,
	}
}

// Steps returns the number of optimizer steps applied so far.
func (s *SGD) Steps() int { return s.stepsApplied }

// Step applies one update to every parameter and clears the gradients.
//
//lint:hotpath
func (s *SGD) Step() {
	//lint:allow hotpath-alloc one-time parameter-cache build on the first step
	if s.params == nil {
		s.params = s.net.Params()
		s.mvmNames = s.net.MVMLayers()
	}
	for _, p := range s.params {
		g := p.Grad
		if s.GradClip > 0 {
			if norm := g.L2Norm(); norm > s.GradClip {
				g.Scale(float32(s.GradClip / norm))
			}
		}
		v, ok := s.velocity[p.Name]
		//lint:allow hotpath-alloc velocity-buffer miss: allocated once per parameter, steady state always hits
		if !ok {
			v = tensor.New(p.W.Shape...)
			s.velocity[p.Name] = v
		}
		lr := float32(s.LR)
		mu := float32(s.Momentum)
		for i := range v.Data {
			v.Data[i] = mu*v.Data[i] + g.Data[i]
			p.W.Data[i] -= lr * v.Data[i]
		}
		g.Zero()
	}
	s.stepsApplied++
	// Every step rewrites the stored conductances on the substrate.
	for _, name := range s.mvmNames {
		s.net.Fabric.WeightsWritten(name)
	}
}
