package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidate pins which flag combinations Validate accepts, and names
// the flag in every rejection.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string // substring of the error; "" means valid
	}{
		{"zero value", Options{}, ""},
		{"dist coordinator", Options{Dist: 2, Workers: 1}, ""},
		{"listen coordinator", Options{Listen: ":0", FleetMax: 4}, ""},
		{"worker", Options{Worker: true, Connect: "127.0.0.1:7433", Slots: 1}, ""},
		{"chaos worker", Options{Worker: true, Connect: "127.0.0.1:7433", Slots: 1, ChaosSever: 4}, ""},
		{"negative -j", Options{Workers: -1}, "-j"},
		{"negative -dist", Options{Dist: -1}, "-dist"},
		{"negative -fleet", Options{FleetMax: -1}, "-fleet"},
		{"worker without connect", Options{Worker: true}, "-worker requires -connect"},
		{"connect without worker", Options{Connect: "127.0.0.1:7433"}, "-connect requires -worker"},
		{"dist worker", Options{Dist: 2, Worker: true, Connect: "127.0.0.1:7433", Slots: 1}, "-dist and -worker"},
		{"listen worker", Options{Listen: ":0", Worker: true, Connect: "127.0.0.1:7433", Slots: 1}, "-listen and -worker"},
		{"dist and listen", Options{Dist: 2, Listen: ":0"}, "-listen and -dist"},
		{"zero slots", Options{Worker: true, Connect: "127.0.0.1:7433"}, "-slots"},
		{"fleet without listen", Options{Dist: 2, FleetMax: 4}, "-fleet only applies"},
		{"negative sever", Options{ChaosSever: -1}, "-chaos-sever-after"},
		{"sever without connect", Options{ChaosSever: 4}, "-chaos-sever-after"},
		{"negative batch-max", Options{BatchMax: -1}, "-batch-max"},
		{"negative batch-wait", Options{BatchWait: -1}, "-batch-wait"},
		{"negative bist-every", Options{BISTEvery: -1}, "-bist-every"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Validate() = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestFlagSurface binds every flag group on one FlagSet, as no tool does
// but any could: the groups must not collide (a second registration of
// -status-addr would panic), -status-addr is the one HTTP surface, and
// the retired -debug-addr and -chaos-seed are unknown.
func TestFlagSurface(t *testing.T) {
	bind := func() (*Options, *flag.FlagSet) {
		var o Options
		fs := flag.NewFlagSet("all", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o.Bind(fs)
		o.BindRun(fs)
		o.BindGrid(fs)
		o.BindServe(fs)
		o.BindDist(fs)
		o.BindWorker(fs)
		return &o, fs
	}
	o, fs := bind()
	if err := fs.Parse([]string{"-status-addr", "127.0.0.1:0"}); err != nil {
		t.Fatalf("parse -status-addr: %v", err)
	}
	if o.StatusAddr != "127.0.0.1:0" {
		t.Fatalf("StatusAddr = %q, want the parsed address", o.StatusAddr)
	}
	for _, retired := range []string{"-debug-addr", "-chaos-seed"} {
		_, fs := bind()
		err := fs.Parse([]string{retired, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("parse %s = %v, want an unknown-flag error", retired, err)
		}
	}
}
