package trace

import (
	"reflect"
	"testing"

	"remapd/internal/dataset"
	"remapd/internal/experiments"
	"remapd/internal/fault"
	"remapd/internal/models"
	"remapd/internal/remap"
	"remapd/internal/serve"
	"remapd/internal/tensor"
	"remapd/internal/trainer"
)

// trainMicro runs a two-epoch Remap-D training of cnn-s on the quick
// chip under the default regime, wrapped when tr is non-nil.
func trainMicro(t *testing.T, tr *Tracer) *trainer.Result {
	t.Helper()
	s := experiments.QuickScale()
	reg := experiments.DefaultRegime()
	ds := dataset.CIFAR10Like(128, 64, s.ImgSize, 7)
	net, err := experiments.BuildModel("cnn-s", s, 7, ds.Classes)
	if err != nil {
		t.Fatal(err)
	}
	pol, _, err := experiments.PolicyByName("remap-d", reg)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		WrapNetwork(net, tr)
		pol = WrapPolicy(pol, tr)
	}
	cfg := trainer.DefaultConfig()
	cfg.Epochs, cfg.BatchSize, cfg.Seed = 2, 32, 7
	cfg.Chip, cfg.Policy, cfg.Pre, cfg.Post = experiments.NewChip(s), pol, &reg.Pre, &reg.Post
	res, err := trainer.Train(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// driveMicro serves 384 seeded requests on one wearing chip, wrapped when
// tr is non-nil, and returns the final stats and the class sequence.
func driveMicro(t *testing.T, tr *Tracer) (serve.Stats, []int) {
	t.Helper()
	s := experiments.QuickScale()
	reg := experiments.DefaultRegime()
	ds := dataset.CIFAR10Like(32, 128, s.ImgSize, 9)
	net, err := experiments.BuildModel("vgg11", s, 9, ds.Classes)
	if err != nil {
		t.Fatal(err)
	}
	chip := experiments.NewChip(s)
	reg.Pre.Inject(chip.Xbars, tensor.NewRNG(3))
	var pol remap.Policy = remap.NewRemapD()
	if tr != nil {
		WrapNetwork(net, tr)
		pol = WrapPolicy(pol, tr)
	}
	em := fault.NewEnduranceModel()
	em.CharacteristicLife = 300
	cfg := serve.Config{BatchMax: 8, BatchWait: 16, BISTEvery: 64, Threshold: reg.RemapThreshold, WritesPerBatch: 4, InC: ds.C, InH: ds.H, InW: ds.W}
	rep, err := serve.NewReplica(serve.ReplicaConfig{Net: net, Chip: chip, Policy: pol, Endurance: em, FaultSeed: 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(cfg, []*serve.Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	traffic := serve.NewTraffic(ds, 5, 3)
	reqs := make([]*serve.Request, 384)
	for i := range reqs {
		reqs[i] = traffic.Next()
		srv.Submit(reqs[i])
	}
	srv.Flush()
	classes := make([]int, len(reqs))
	for i, r := range reqs {
		classes[i] = r.Class
	}
	return srv.Stats(), classes
}

// TestWrappersAreTransparent pins that the traced run computes exactly
// what the untraced one does, through training (forward, backward, eval,
// weight write-back, epoch maintenance) and serving (infer, online BIST,
// serving maintenance).
func TestWrappersAreTransparent(t *testing.T) {
	tr := New()
	if plain, traced := trainMicro(t, nil), trainMicro(t, tr); !reflect.DeepEqual(plain, traced) {
		t.Errorf("wrapped training differs:\nplain  %+v\ntraced %+v", plain, traced)
	}
	m := tr.LayerMetrics([]string{"conv2d", "linear"}, []string{"fwd", "bwd", "eval"})
	for _, name := range []string{"nn.conv2d.fwd_calls", "nn.conv2d.bwd_calls", "nn.linear.eval_calls", "arch.calls", "remap.maintain_calls"} {
		if m[name] == 0 {
			t.Errorf("traced training recorded no %s", name)
		}
	}
	if tr.Agg(spanWeightsWritten).Calls == 0 {
		t.Error("the optimizer's WeightsWritten calls bypassed the timing fabric")
	}

	tr = New()
	plainStats, plainClasses := driveMicro(t, nil)
	tracedStats, tracedClasses := driveMicro(t, tr)
	if plainStats != tracedStats || !reflect.DeepEqual(plainClasses, tracedClasses) {
		t.Errorf("wrapped serving differs:\nplain  %+v\ntraced %+v", plainStats, tracedStats)
	}
	if plainStats.MaintainRounds == 0 {
		t.Error("the serving drive ran no maintenance round; the test no longer covers Maintain")
	}
	if tr.Agg("nn.conv2d.infer").Calls == 0 || tr.Agg(spanMaintain).Calls == 0 {
		t.Error("traced serving recorded no infer or maintain spans")
	}
}

// TestWrapKeepsMappedLayers checks that wrapping forwards SetFabric and
// MVMContainer exactly where the wrapped layer has them, on every model.
func TestWrapKeepsMappedLayers(t *testing.T) {
	for _, name := range models.Names() {
		cfg := models.DefaultConfig()
		net, err := models.Build(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := net.MVMLayers()
		weights := map[string]*tensor.Tensor{}
		for _, l := range want {
			weights[l] = net.LayerWeight(l)
		}
		WrapNetwork(net, New())
		if got := net.MVMLayers(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapped MVM layers %v, want %v", name, got, want)
		}
		for _, l := range want {
			if net.LayerWeight(l) != weights[l] {
				t.Errorf("%s: wrapped network lost the weight of %s", name, l)
			}
		}
	}
}

// TestSelfTime checks span nesting: a parent's self time excludes its
// children, and Record adds root spans.
func TestSelfTime(t *testing.T) {
	tr := New()
	tr.Begin("outer")
	tr.Begin("inner")
	spin(2e6)
	tr.End()
	tr.EndAs("renamed")
	outer, inner := tr.Agg("renamed"), tr.Agg("inner")
	if outer.Calls != 1 || inner.Calls != 1 {
		t.Fatalf("calls: outer %d inner %d", outer.Calls, inner.Calls)
	}
	if outer.Self >= outer.Total || outer.Total < inner.Total || inner.Self != inner.Total {
		t.Errorf("outer %+v inner %+v: self time must exclude children", outer, inner)
	}
	if tr.spans[0].Parent != tr.spans[1].ID {
		t.Errorf("inner span's parent is %d, want %d", tr.spans[0].Parent, tr.spans[1].ID)
	}
}

var sink float64

func spin(n int) {
	for i := 0; i < n; i++ {
		sink += float64(i)
	}
}

// BenchmarkSpan measures what tracing adds to one wrapped call: a
// Begin/End pair (the tracer is renewed every 100k spans to bound memory).
func BenchmarkSpan(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 {
			tr = New()
		}
		tr.Begin("nn.conv2d.fwd")
		tr.End()
	}
}
