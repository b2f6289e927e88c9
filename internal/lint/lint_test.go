package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"remapd/internal/lint"
)

// fixturePaths maps each testdata/src fixture directory to the import
// path it is loaded under. The paths matter: rules scope themselves by
// package path, so fixtures must look like the code they stand in for
// (the ctx-goroutine fixture pretends to live in internal/experiments).
var fixturePaths = map[string]string{
	"wallclock":  "remapd/internal/lintfixture/wallclock",
	"globalrand": "remapd/internal/lintfixture/globalrand",
	"seededrng":  "remapd/internal/lintfixture/seededrng",
	"maporder":   "remapd/internal/lintfixture/maporder",
	"floateq":    "remapd/internal/lintfixture/floateq",
	"nakedprint": "remapd/internal/lintfixture/nakedprint",
	"goroutine":  "remapd/internal/experiments/lintfixture",
	"allowok":    "remapd/internal/lintfixture/allowok",
	"obsdomain":  "remapd/internal/obs/obsfixture",

	"hotpathalloc":   "remapd/internal/lintfixture/hotpathalloc",
	"hotpathuse":     "remapd/internal/lintfixture/hotpathuse",
	"workspaceowner": "remapd/internal/lintfixture/workspaceowner",
	"uncheckederr":   "remapd/internal/lintfixture/uncheckederr",
	"allowspan":      "remapd/internal/lintfixture/allowspan",
	"spanclock":      "remapd/internal/obs/spanfixture",
}

var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

// sharedLoader builds one loader for every test so the standard library
// and module dependencies type-check once per process.
func sharedLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = lint.NewLoader(".")
		if loaderErr != nil {
			return
		}
		loader.Overlay = map[string]string{}
		for fixture, asPath := range fixturePaths {
			abs, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
			if err != nil {
				loaderErr = err
				return
			}
			loader.Overlay[asPath] = abs
		}
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

func runFixture(t *testing.T, fixture string) []lint.Finding {
	t.Helper()
	pkg, err := sharedLoader(t).Load(fixturePaths[fixture])
	if err != nil {
		t.Fatalf("load %s: %v", fixture, err)
	}
	return lint.RunPackage(pkg)
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// wantsOf parses the fixture's `// want "substr"` expectation comments,
// keyed by file:line.
func wantsOf(t *testing.T, fixture string) map[string][]string {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", e.Name(), i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

// checkFixture runs the suite over a fixture and requires an exact match
// between findings and want comments: every finding must match a want on
// its line, and every want must be hit by at least one finding.
func checkFixture(t *testing.T, fixture string) []lint.Finding {
	t.Helper()
	findings := runFixture(t, fixture)
	wants := wantsOf(t, fixture)
	matched := map[string]bool{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		text := "[" + f.Rule + "] " + f.Msg
		ok := false
		for _, w := range wants[key] {
			if strings.Contains(text, w) {
				ok = true
				matched[key+"\x00"+w] = true
			}
		}
		if !ok {
			t.Errorf("unexpected finding at %s: %s", key, text)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !matched[key+"\x00"+w] {
				t.Errorf("missing finding at %s: want %q", key, w)
			}
		}
	}
	return findings
}

// TestRuleFixtures drives each analyzer against a fixture package of
// deliberate violations: each seeded violation must be detected by
// exactly the intended rule, and the non-violating declarations must stay
// silent.
func TestRuleFixtures(t *testing.T) {
	for _, fixture := range []string{
		"wallclock", "globalrand", "seededrng", "maporder", "floateq", "nakedprint", "goroutine",
		"obsdomain", "hotpathalloc", "workspaceowner", "uncheckederr", "spanclock",
	} {
		t.Run(fixture, func(t *testing.T) { checkFixture(t, fixture) })
	}
}

// TestAllowDirectives checks the suppression machinery: a valid allow
// suppresses exactly one finding, and stale or malformed allows are
// findings themselves.
func TestAllowDirectives(t *testing.T) {
	findings := checkFixture(t, "allowok")
	clock, stale := 0, 0
	for _, f := range findings {
		switch f.Rule {
		case "no-wall-clock":
			clock++
		case "stale-allow":
			stale++
		}
	}
	// Two time.Now calls, one allow: exactly one must survive.
	if clock != 1 {
		t.Errorf("no-wall-clock findings = %d, want exactly 1 (the allow must suppress exactly one)", clock)
	}
	if stale != 3 {
		t.Errorf("stale-allow findings = %d, want 3 (stale, unknown rule, missing reason)", stale)
	}
}

// TestAllowSpanMultiline pins the allow-directive span rules: one allow
// above a multi-line statement covers every line of the statement, and a
// fully-consumed allow is not reported stale. The fixture seeds four
// wall-clock violations across two multi-line statements, each preceded
// by a single allow — anything surfacing (violation or stale-allow) is a
// regression.
func TestAllowSpanMultiline(t *testing.T) {
	if findings := checkFixture(t, "allowspan"); len(findings) != 0 {
		t.Errorf("allowspan fixture produced %d finding(s), want 0", len(findings))
	}
}

// TestCrossPackageFactPropagation pins the fact-export mechanism: hotpath
// annotations recorded while type-checking the real internal/tensor and
// internal/nn packages must be visible when a package importing them is
// analyzed — annotated kernels callable, unannotated ones findings, and
// the nn.Layer interface contract enforced on out-of-package types.
func TestCrossPackageFactPropagation(t *testing.T) {
	findings := checkFixture(t, "hotpathuse")
	hitNew := false
	for _, f := range findings {
		if f.Rule == "hotpath-alloc" && strings.Contains(f.Msg, "tensor.New ") {
			hitNew = true
		}
		if strings.Contains(f.Msg, "tensor.MatMulDenseInto") {
			t.Errorf("annotated cross-package callee flagged: %s", f.Msg)
		}
	}
	if !hitNew {
		t.Error("unannotated cross-package callee tensor.New not flagged")
	}
}

// TestWireDrift drives the wire-stability golden check through its three
// failure modes with a fixture package mounted at an import path ending
// in internal/dist: field-set drift at an unchanged version, a version
// bump with a stale golden, and a missing golden. The committed drift
// golden predates the fixture's Extra field on purpose.
func TestWireDrift(t *testing.T) {
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(filepath.Join("testdata", "src", "wiredrift"))
	if err != nil {
		t.Fatal(err)
	}
	l.Overlay = map[string]string{"remapd/wirefixture/internal/dist": abs}
	driftDir, err := filepath.Abs(filepath.Join("testdata", "wire-drift"))
	if err != nil {
		t.Fatal(err)
	}
	l.WireGoldenDir = driftDir
	pkg, err := l.Load("remapd/wirefixture/internal/dist")
	if err != nil {
		t.Fatal(err)
	}

	requireFinding := func(t *testing.T, findings []lint.Finding, substr string) {
		t.Helper()
		for _, f := range findings {
			if f.Rule == "wire-stability" && strings.Contains(f.Msg, substr) {
				return
			}
		}
		t.Errorf("no wire-stability finding containing %q in %v", substr, findings)
	}

	findings := lint.RunPackage(pkg)
	requireFinding(t, findings, "wire field set changed without a ProtoVersion bump")
	for _, substr := range []string{
		"not lowercase snake_case",
		"duplicate json tag",
		"has no json tag",
		"json tag on unexported field",
	} {
		requireFinding(t, findings, substr)
	}

	staleDir, err := filepath.Abs(filepath.Join("testdata", "wire-drift-stale"))
	if err != nil {
		t.Fatal(err)
	}
	pkg.GoldenDir = staleDir
	requireFinding(t, lint.RunPackage(pkg), "ProtoVersion changed (0 -> 1) but the golden is stale")

	pkg.GoldenDir = t.TempDir()
	requireFinding(t, lint.RunPackage(pkg), "no wire golden for this package")
}

// TestRepoClean runs the whole suite over the module, mirroring the CI
// gate: the repository itself must be finding-free.
func TestRepoClean(t *testing.T) {
	l := sharedLoader(t)
	paths, err := l.Discover()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		for _, f := range lint.RunPackage(pkg) {
			t.Errorf("%s", f)
		}
	}
}

// TestPatternMatch pins the driver's package-pattern semantics.
func TestPatternMatch(t *testing.T) {
	l := sharedLoader(t)
	cases := []struct {
		path, pattern string
		want          bool
	}{
		{"remapd/internal/remap", "./...", true},
		{"remapd", "./...", true},
		{"remapd/internal/remap", "./internal/...", true},
		{"remapd/internal/remap", "./internal/remap", true},
		{"remapd/internal/remap", "./internal/noc", false},
		{"remapd/internal/remap", "remapd/internal/remap", true},
		{"remapd/cmd/remapd-lint", "./internal/...", false},
	}
	for _, c := range cases {
		if got := l.Match(c.path, c.pattern); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.path, c.pattern, got, c.want)
		}
	}
}
