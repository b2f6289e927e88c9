package trace

import (
	"reflect"
	"strings"

	"remapd/internal/nn"
	"remapd/internal/remap"
	"remapd/internal/tensor"
)

// Span names. A layer span is named "nn.<kind>.<phase>", where kind is
// the layer's lower-cased Go type name and phase is fwd, bwd, eval
// (Forward with train=false) or infer.
const (
	spanEffectiveFwd   = "arch.effective_fwd"
	spanEffectiveBwd   = "arch.effective_bwd"
	spanTransformGrad  = "arch.transform_grad"
	spanWeightsWritten = "arch.weights_written"
	spanDeploy         = "remap.deploy"
	spanMaintain       = "remap.maintain"
)

// kind returns the name the traced run gives a layer's type, e.g.
// "conv2d" for *nn.Conv2D.
func kind(l nn.Layer) string {
	t := reflect.TypeOf(l)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return strings.ToLower(t.Name())
}

// WrapNetwork replaces every entry of net.Layers with a timing wrapper.
// Call it after loading weights (nn.LoadWeights recognises BatchNorm
// layers by type) and before the network is mapped onto a chip. A
// wrapper forwards SetFabric and MVMContainer exactly when the layer it
// wraps implements them, so mapping sees the same layers as before.
func WrapNetwork(net *nn.Network, t *Tracer) {
	h := &netHook{net: net, t: t}
	for i, l := range net.Layers {
		k := kind(l)
		base := &layer{Layer: l, t: t, fwd: "nn." + k + ".fwd", bwd: "nn." + k + ".bwd", eval: "nn." + k + ".eval", infer: "nn." + k + ".infer"}
		_, fabric := l.(nn.FabricUser)
		c, container := l.(nn.MVMContainer)
		switch {
		case fabric && container:
			net.Layers[i] = fabricContainerLayer{fabricLayer{base, h}, c}
		case fabric:
			net.Layers[i] = fabricLayer{base, h}
		case container:
			net.Layers[i] = containerLayer{base, c}
		default:
			net.Layers[i] = base
		}
	}
}

// layer times one top-level layer; Name and Params pass through the
// embedded interface.
type layer struct {
	nn.Layer
	t                     *Tracer
	fwd, bwd, eval, infer string
}

func (l *layer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.t.Begin(l.fwd)
	} else {
		l.t.Begin(l.eval)
	}
	y := l.Layer.Forward(x, train)
	l.t.End()
	return y
}

func (l *layer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	l.t.Begin(l.bwd)
	dx := l.Layer.Backward(dy)
	l.t.End()
	return dx
}

// Infer takes the wrapped layer's own inference path, as nn.Network.Infer
// would have.
func (l *layer) Infer(x *tensor.Tensor) *tensor.Tensor {
	l.t.Begin(l.infer)
	y := nn.InferLayer(l.Layer, x)
	l.t.End()
	return y
}

type fabricLayer struct {
	*layer
	hook *netHook
}

func (l fabricLayer) SetFabric(f nn.Fabric) {
	l.Layer.(nn.FabricUser).SetFabric(l.hook.fabric(f))
}

type containerLayer struct {
	*layer
	nn.MVMContainer
}

type fabricContainerLayer struct {
	fabricLayer
	nn.MVMContainer
}

// netHook gives every wrapped layer of one network the same timing fabric.
// nn.SGD reaches the fabric through Network.Fabric rather than through a
// layer (WeightsWritten after each step), and Network.SetFabric stores the
// raw fabric there before it calls the layers, so the hook re-points
// Network.Fabric at the timing fabric too.
type netHook struct {
	net     *nn.Network
	t       *Tracer
	inner   nn.Fabric
	wrapped *Fabric
}

func (h *netHook) fabric(f nn.Fabric) nn.Fabric {
	if h.wrapped == nil || h.inner != f {
		h.inner, h.wrapped = f, &Fabric{inner: f, t: h.t}
	}
	h.net.Fabric = h.wrapped
	return h.wrapped
}

// Fabric times every call into the compute substrate (an *arch.Chip).
type Fabric struct {
	inner nn.Fabric
	t     *Tracer
}

func (f *Fabric) EffectiveForward(layer string, w *tensor.Tensor) *tensor.Tensor {
	f.t.Begin(spanEffectiveFwd)
	r := f.inner.EffectiveForward(layer, w)
	f.t.End()
	return r
}

func (f *Fabric) EffectiveBackward(layer string, w *tensor.Tensor) *tensor.Tensor {
	f.t.Begin(spanEffectiveBwd)
	r := f.inner.EffectiveBackward(layer, w)
	f.t.End()
	return r
}

func (f *Fabric) TransformGradient(layer string, grad *tensor.Tensor) {
	f.t.Begin(spanTransformGrad)
	f.inner.TransformGradient(layer, grad)
	f.t.End()
}

func (f *Fabric) WeightsWritten(layer string) {
	f.t.Begin(spanWeightsWritten)
	f.inner.WeightsWritten(layer)
	f.t.End()
}

// Policy times a maintenance policy's deploy and maintain steps and counts
// what each maintenance report says the policy did.
type Policy struct {
	inner remap.Policy
	t     *Tracer
}

// WrapPolicy returns p behind a timing wrapper.
func WrapPolicy(p remap.Policy, t *Tracer) *Policy { return &Policy{inner: p, t: t} }

func (p *Policy) Name() string { return p.inner.Name() }

func (p *Policy) Deploy(ctx *remap.Context) {
	p.t.Begin(spanDeploy)
	p.inner.Deploy(ctx)
	p.t.End()
}

func (p *Policy) Maintain(ctx *remap.Context) remap.Report {
	p.t.Begin(spanMaintain)
	r := p.inner.Maintain(ctx)
	p.t.End()
	p.t.Add("remap.swaps", float64(r.Swaps))
	p.t.Add("remap.senders", float64(r.Senders))
	p.t.Add("remap.unmatched", float64(r.Unmatched))
	p.t.Add("remap.bist_cycles", float64(r.BISTCycles))
	p.t.Add("remap.noc_cycles", float64(r.NoCCycles))
	return r
}

// LayerMetrics rolls the nn, arch and remap spans and counters up into
// their per-layer metrics: self seconds and call counts per layer kind
// and phase, fabric seconds, and policy seconds and report counts.
func (t *Tracer) LayerMetrics(kinds, phases []string) map[string]float64 {
	m := map[string]float64{}
	for _, k := range kinds {
		for _, ph := range phases {
			a := t.Agg("nn." + k + "." + ph)
			m["nn."+k+"."+ph+"_s"] = a.Self
			m["nn."+k+"."+ph+"_calls"] = float64(a.Calls)
		}
	}
	for name, span := range map[string]string{
		"arch.effective_fwd_s":   spanEffectiveFwd,
		"arch.effective_bwd_s":   spanEffectiveBwd,
		"arch.transform_grad_s":  spanTransformGrad,
		"arch.weights_written_s": spanWeightsWritten,
	} {
		a := t.Agg(span)
		m[name] = a.Self
		m["arch.calls"] += float64(a.Calls)
	}
	m["remap.deploy_s"] = t.Agg(spanDeploy).Self
	maintain := t.Agg(spanMaintain)
	m["remap.maintain_s"] = maintain.Self
	m["remap.maintain_calls"] = float64(maintain.Calls)
	for _, c := range []string{"remap.swaps", "remap.senders", "remap.unmatched", "remap.bist_cycles", "remap.noc_cycles"} {
		m[c] = t.Count(c)
	}
	return m
}
