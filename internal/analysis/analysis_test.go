package analysis

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden diagnostic files under testdata/golden")

// fixtureDir resolves one package directory under testdata/src.
func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkGolden compares the rendered diagnostics against
// testdata/golden/<name>.txt (regenerate with -update).
func checkGolden(t *testing.T, name, dir string, diags []Diagnostic) {
	t.Helper()
	got := RenderDiagnostics(diags, dir)
	golden := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics diverge from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

func TestDeterminismFixture(t *testing.T) {
	dir := fixtureDir(t, "determinism")
	cfg := &Config{ClockInjectionPoints: []string{"determinism.WallClock"}}
	diags := RunFixture(t, dir, cfg, DeterminismAnalyzer)
	checkGolden(t, "determinism", dir, diags)
}

// TestDeterminismExemptFixture proves the serving-plane dispensation
// both ways on the same fixture: without an exemption the package is
// full of findings (pinned by golden + want comments); listed on
// DeterminismExemptPkgs it is completely silent.
func TestDeterminismExemptFixture(t *testing.T) {
	dir := fixtureDir(t, "servepkg")
	diags := RunFixture(t, dir, &Config{}, DeterminismAnalyzer)
	if len(diags) == 0 {
		t.Fatal("servepkg fixture produced no findings without an exemption")
	}
	checkGolden(t, "servepkg", dir, diags)

	pkg, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	exempted := Run([]*Package{pkg}, []*Analyzer{DeterminismAnalyzer},
		&Config{DeterminismExemptPkgs: []string{"servepkg"}})
	if len(exempted) != 0 {
		t.Errorf("exempt package still produced %d findings:\n%s",
			len(exempted), RenderDiagnostics(exempted, dir))
	}
}

// TestDeterminismLeaseExemptFixture proves an exact-entry dispensation
// the same two ways on the process-identity fixture (hostname, pid,
// wall clock) — full of findings without an exemption, silent when
// listed — and then pins the scope of the real DefaultConfig entry
// for the serving plane: it covers internal/serve itself and nothing
// else; its subpackages and the campaign and checkpoint code stay under
// the full determinism check.
func TestDeterminismLeaseExemptFixture(t *testing.T) {
	dir := fixtureDir(t, "leasepkg")
	diags := RunFixture(t, dir, &Config{}, DeterminismAnalyzer)
	if len(diags) == 0 {
		t.Fatal("leasepkg fixture produced no findings without an exemption")
	}
	checkGolden(t, "leasepkg", dir, diags)

	pkg, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	exempted := Run([]*Package{pkg}, []*Analyzer{DeterminismAnalyzer},
		&Config{DeterminismExemptPkgs: []string{"leasepkg"}})
	if len(exempted) != 0 {
		t.Errorf("exempt package still produced %d findings:\n%s",
			len(exempted), RenderDiagnostics(exempted, dir))
	}

	cfg := DefaultConfig()
	for pkgPath, want := range map[string]bool{
		"memcontention/internal/serve":      true,
		"memcontention/internal/serve/sub":  false,
		"memcontention/internal/campaign":   false,
		"memcontention/internal/checkpoint": false,
	} {
		if got := determinismExempt(cfg.DeterminismExemptPkgs, pkgPath); got != want {
			t.Errorf("determinismExempt(DefaultConfig, %q) = %v, want %v", pkgPath, got, want)
		}
	}
}

// TestDeterminismExemptionDoesNotLeakToSimPackages runs the simulation
// fixture under the full DefaultConfig exemption list: every wall-clock
// finding must still fire — the serving dispensation is surgical, not a
// hole in the invariant.
func TestDeterminismExemptionDoesNotLeakToSimPackages(t *testing.T) {
	dir := fixtureDir(t, "determinism")
	cfg := DefaultConfig()
	cfg.ClockInjectionPoints = []string{"determinism.WallClock"}
	diags := RunFixture(t, dir, cfg, DeterminismAnalyzer)
	if len(diags) == 0 {
		t.Fatal("sim fixture went silent under the default exemption list")
	}
	checkGolden(t, "determinism", dir, diags)
}

// TestDeterminismExemptMatching pins the entry syntax: exact import
// paths, and subtree prefixes when the entry ends in "/".
func TestDeterminismExemptMatching(t *testing.T) {
	cases := []struct {
		exempt []string
		pkg    string
		want   bool
	}{
		{[]string{"a/serve"}, "a/serve", true},
		{[]string{"a/serve"}, "a/serve/sub", false},
		{[]string{"a/serve/"}, "a/serve/sub", true},
		{[]string{"a/serve/"}, "a/serve", false},
		{[]string{"a/serve"}, "a/served", false},
		{nil, "a/serve", false},
	}
	for _, tc := range cases {
		if got := determinismExempt(tc.exempt, tc.pkg); got != tc.want {
			t.Errorf("determinismExempt(%v, %q) = %v, want %v", tc.exempt, tc.pkg, got, tc.want)
		}
	}
}

func TestMapRangeFixture(t *testing.T) {
	dir := fixtureDir(t, "maprange")
	diags := RunFixture(t, dir, &Config{}, MapRangeAnalyzer)
	checkGolden(t, "maprange", dir, diags)
}

func TestNilHookFixture(t *testing.T) {
	dir := fixtureDir(t, "nilhook")
	cfg := &Config{NilHookTypes: []string{"nilhook.Recorder"}}
	diags := RunFixture(t, dir, cfg, NilHookAnalyzer)
	checkGolden(t, "nilhook", dir, diags)
}

func TestDurableFixture(t *testing.T) {
	dir := fixtureDir(t, "durable")
	diags := RunFixture(t, dir, &Config{}, DurableAnalyzer)
	checkGolden(t, "durable", dir, diags)
}

func TestErrHygieneFixture(t *testing.T) {
	dir := fixtureDir(t, "errhygiene")
	diags := RunFixture(t, dir, &Config{}, ErrHygieneAnalyzer)
	checkGolden(t, "errhygiene", dir, diags)
}

// TestLockGuardFixture exercises the guarded-field analyzer: held and
// unheld accesses, defer-unlock, call-graph propagation, goroutine
// hand-off, the constructor exemption, and a malformed annotation.
func TestLockGuardFixture(t *testing.T) {
	dir := fixtureDir(t, "lockguard")
	diags := RunFixture(t, dir, &Config{}, LockGuardAnalyzer)
	checkGolden(t, "lockguard", dir, diags)
}

// TestGoLeakFixture exercises the goroutine-termination analyzer: every
// accepted proof shape stays silent, endless and dynamic spawns fire.
func TestGoLeakFixture(t *testing.T) {
	dir := fixtureDir(t, "goleak")
	diags := RunFixture(t, dir, &Config{}, GoLeakAnalyzer)
	checkGolden(t, "goleak", dir, diags)
}

// TestCtxFlowFixture exercises the dropped-context analyzer: dropped
// ctx on blocking paths fires (direct, transitive, explicit discard),
// threaded or unneeded contexts stay silent.
func TestCtxFlowFixture(t *testing.T) {
	dir := fixtureDir(t, "ctxflow")
	diags := RunFixture(t, dir, &Config{}, CtxFlowAnalyzer)
	checkGolden(t, "ctxflow", dir, diags)
}

// TestSuppressFixture exercises the suppression pseudo-check: a used
// allowance silences its finding, while stale, unknown-check and
// missing-reason allowances are themselves diagnostics.
func TestSuppressFixture(t *testing.T) {
	dir := fixtureDir(t, "suppress")
	diags := RunFixture(t, dir, &Config{}, Analyzers()...)
	checkGolden(t, "suppress", dir, diags)
	var stale, malformed int
	for _, d := range diags {
		if d.Check != SuppressCheck {
			continue
		}
		if strings.Contains(d.Message, "stale") {
			stale++
		} else {
			malformed++
		}
	}
	if stale != 1 || malformed != 2 {
		t.Errorf("suppress findings: stale=%d malformed=%d, want 1 and 2", stale, malformed)
	}
}

// TestSuppressLastLineFixture is the regression test for allow comments
// on the final line of a file with no trailing newline: such a comment
// trails the closing brace below its target, and must both silence the
// finding on the previous line and not be reported stale.
func TestSuppressLastLineFixture(t *testing.T) {
	dir := fixtureDir(t, "suppresslast")
	src, err := os.ReadFile(filepath.Join(dir, "suppresslast.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(src) == 0 || src[len(src)-1] == '\n' {
		t.Fatal("fixture must not end in a newline — that is the case under test")
	}
	diags := RunFixture(t, dir, &Config{}, DurableAnalyzer)
	if len(diags) != 0 {
		t.Errorf("final-line suppression not honored, got:\n%s", RenderDiagnostics(diags, dir))
	}
}

// TestCleanFixture proves every analyzer stays silent on conforming code.
func TestCleanFixture(t *testing.T) {
	dir := fixtureDir(t, "clean")
	cfg := &Config{
		NilHookTypes:         []string{"clean.Store"},
		ClockInjectionPoints: nil,
	}
	diags := RunFixture(t, dir, cfg, Analyzers()...)
	if len(diags) != 0 {
		t.Errorf("clean fixture produced %d diagnostics:\n%s", len(diags), RenderDiagnostics(diags, dir))
	}
}

// TestRunDeterministic runs the full suite twice over the same fixture
// and asserts identical output — memlint's own reports must be
// byte-stable, like every other artifact in this repo.
func TestRunDeterministic(t *testing.T) {
	dir := fixtureDir(t, "suppress")
	pkg1, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	d1 := Run([]*Package{pkg1}, Analyzers(), &Config{})
	d2 := Run([]*Package{pkg2}, Analyzers(), &Config{})
	if RenderDiagnostics(d1, dir) != RenderDiagnostics(d2, dir) {
		t.Error("two runs over the same fixture produced different diagnostics")
	}
	if !reflect.DeepEqual(SortedChecks(d1), SortedChecks(d2)) {
		t.Error("check sets differ between runs")
	}
}

// TestCheckNames pins the accepted //memlint:allow vocabulary.
func TestCheckNames(t *testing.T) {
	got := CheckNames(Analyzers())
	want := []string{"ctxflow", "determinism", "durable", "errhygiene", "goleak", "lockguard", "maprange", "nilhook", "suppress"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CheckNames = %v, want %v", got, want)
	}
}

// TestDefaultConfigNamesExist: every DefaultConfig entry inside the
// module names something that exists. The analyzers match entries as
// strings, so an entry naming a deleted package, type or function is
// silently ignored; here it fails instead. A package entry must name a
// directory with non-test Go files, and a "pkg.Name" or
// "pkg.Type.Method" entry a declaration in those files.
func TestDefaultConfigNamesExist(t *testing.T) {
	root := filepath.Join("..", "..")
	mod, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	// declsOf returns the type, function and "Type.Method" names declared
	// in the non-test files of a module package, or nil if it has none.
	declsOf := func(pkgPath string) map[string]bool {
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkgPath, mod)))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var names map[string]bool
		fset := token.NewFileSet()
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if names == nil {
				names = make(map[string]bool)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						name = receiverTypeName(nil, d) + "." + name
					}
					names[name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							names[ts.Name.Name] = true
						}
					}
				}
			}
		}
		return names
	}

	cfg := DefaultConfig()
	for _, entries := range [][]string{cfg.DurableWriterPkgs, cfg.DeterminismExemptPkgs} {
		for _, entry := range entries {
			pkgPath := strings.TrimSuffix(entry, "/")
			if strings.HasPrefix(pkgPath, mod+"/") && declsOf(pkgPath) == nil {
				t.Errorf("DefaultConfig names package %q, which has no Go files", entry)
			}
		}
	}
	for _, entries := range [][]string{cfg.NilHookTypes, cfg.ClockInjectionPoints, cfg.SinkTypes, cfg.BlockingCalls} {
		for _, entry := range entries {
			if !strings.HasPrefix(entry, mod+"/") {
				continue
			}
			slash := strings.LastIndex(entry, "/")
			dot := strings.Index(entry[slash:], ".")
			if dot < 0 {
				t.Errorf("DefaultConfig entry %q names no declaration", entry)
				continue
			}
			pkgPath, name := entry[:slash+dot], entry[slash+dot+1:]
			if names := declsOf(pkgPath); names == nil {
				t.Errorf("DefaultConfig entry %q: package %q has no Go files", entry, pkgPath)
			} else if !names[name] {
				t.Errorf("DefaultConfig entry %q: %s declares no %s", entry, pkgPath, name)
			}
		}
	}
}
