// Package analysis is memlint's engine: repo-specific static analyzers
// that enforce the reproduction's load-bearing invariants at build time,
// implemented purely on the standard library (go/parser, go/ast,
// go/types, go/importer — no x/tools), so the module stays stdlib-only.
//
// The invariants are the ones the paper reproduction depends on the way
// the original measurements depend on a quiet testbed:
//
//   - determinism: no wall clock, global rand or pid reads outside the
//     declared clock-injection points, and no map iteration feeding an
//     exporter without a sort — two identical runs must emit
//     byte-identical artifacts (check "determinism", "maprange");
//   - nil-hook safety: the observability/trace/fault hook types are
//     documented as inert when nil, so every exported method that touches
//     receiver state must open with a nil-receiver guard (check
//     "nilhook");
//   - durable writes: artifacts are only written through
//     internal/atomicio's stage+fsync+rename path, never with a direct
//     os.WriteFile/os.Create/os.Rename that can tear on crash (check
//     "durable");
//   - error hygiene: sentinel errors are matched with errors.Is, and
//     fmt.Errorf wraps with %w instead of dropping the cause (check
//     "errhygiene").
//
// A finding that is intentional is silenced in place with
//
//	//memlint:allow <check> — <reason>
//
// on the offending line or the line above; the "suppress" pseudo-check
// rejects malformed and stale suppressions so allowances cannot outlive
// the code they excused (see docs/static-analysis.md).
//
// Each analyzer is a pure function from a type-checked package to a
// diagnostic list; Run sorts and deduplicates the combined output, so
// memlint itself is deterministic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, located by file position and attributed to
// the check that produced it.
type Diagnostic struct {
	Path    string // file path as parsed (module-relative under cmd/memlint)
	Line    int
	Col     int
	Check   string
	Message string
}

// String renders the canonical "file:line:col: [check] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Path, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check. Run inspects the pass's package and
// reports findings through pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string // one-line summary shown by memlint -checks
	Run  func(pass *Pass)
}

// Pass gives one analyzer run its inputs: the type-checked package under
// inspection, the shared configuration, and the module-wide facts
// (call graph, concurrency summaries) shared by every pass of one Run.
type Pass struct {
	Pkg    *Package
	Config *Config
	mod    *module
	diags  *[]Diagnostic
	check  string
}

// Graph returns the module-wide call graph, built lazily on first use
// and shared by every pass of the same Run.
func (p *Pass) Graph() *CallGraph { return p.mod.callGraph() }

// module holds facts derived once per Run over the full package set:
// the call graph and the concurrency summaries the lockguard/goleak/
// ctxflow analyzers share. Run is single-goroutine, so plain lazy
// initialization suffices.
type module struct {
	pkgs  []*Package
	graph *CallGraph
	conc  *concFacts
}

func (m *module) callGraph() *CallGraph {
	if m.graph == nil {
		m.graph = buildCallGraph(m.pkgs)
	}
	return m.graph
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Path:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Config tunes the analyzers to a repository. The zero value checks
// nothing repo-specific; DefaultConfig returns the memcontention rules.
type Config struct {
	// NilHookTypes are fully qualified "importpath.TypeName" entries whose
	// exported pointer-receiver methods must begin with a nil-receiver
	// guard whenever they touch receiver state.
	NilHookTypes []string
	// DurableWriterPkgs are package import paths allowed to call
	// os.WriteFile / os.Create / os.Rename directly (the packages that
	// implement the durable write path).
	DurableWriterPkgs []string
	// ClockInjectionPoints are functions allowed to read nondeterministic
	// process state, named "importpath.FuncName" for functions and
	// "importpath.TypeName.Method" for methods. Everything else must take
	// a clock/seed from its caller.
	ClockInjectionPoints []string
	// DeterminismExemptPkgs are package import paths (exact, or prefixes
	// when ending in "/") where the determinism check does not apply at
	// all. Serving-plane packages live here: a long-running server's
	// latency measurements and deadlines are wall-clock by nature and
	// never feed a reproducible artifact. Simulation and calibration
	// packages must never be listed.
	DeterminismExemptPkgs []string
	// SinkTypes are additional fully qualified types whose method calls
	// count as ordering-sensitive sinks for the maprange check (on top of
	// the built-in writers, builders and encoders).
	SinkTypes []string
	// BlockingCalls are functions and methods the ctxflow check treats as
	// blocking operations on top of the built-in channel operations and
	// sync.Cond.Wait/WaitGroup.Wait — named "importpath.FuncName" or
	// "importpath.TypeName.Method". A function that drops its context
	// while transitively reaching one of these cannot be cancelled
	// mid-wait.
	BlockingCalls []string
}

// DefaultConfig returns the rules for this repository.
func DefaultConfig() *Config {
	return &Config{
		NilHookTypes: []string{
			"memcontention/internal/obs.Registry",
			"memcontention/internal/obs.Counter",
			"memcontention/internal/obs.Gauge",
			"memcontention/internal/obs.Histogram",
			"memcontention/internal/trace.Recorder",
			"memcontention/internal/faults.Plan",
		},
		DurableWriterPkgs: []string{
			"memcontention/internal/atomicio",
		},
		ClockInjectionPoints: []string{
			// The one sanctioned wall-clock read: the default obs.Clock.
			"memcontention/internal/obs.WallClock",
		},
		DeterminismExemptPkgs: []string{
			// The serving plane: live request latency is wall-clock by
			// definition and feeds rolling gauges, not artifacts.
			"memcontention/internal/serve",
			"memcontention/cmd/memserve",
			"memcontention/scripts/loadgen",
			// slogx mints random run ids; identity, not simulation.
			"memcontention/internal/obs/slogx",
		},
		SinkTypes: []string{
			"memcontention/internal/trace.Recorder",
			"memcontention/internal/export.Table",
		},
		BlockingCalls: []string{
			// Uncancellable sleeps: a dropped ctx cannot interrupt them.
			"time.Sleep",
		},
	}
}

// Analyzers returns every check in its canonical order. The suppression
// pseudo-check "suppress" is implemented by Run itself, not listed here.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapRangeAnalyzer,
		NilHookAnalyzer,
		DurableAnalyzer,
		ErrHygieneAnalyzer,
		LockGuardAnalyzer,
		GoLeakAnalyzer,
		CtxFlowAnalyzer,
	}
}

// CheckNames returns the names accepted by //memlint:allow — the
// analyzers plus the "suppress" pseudo-check.
func CheckNames(analyzers []*Analyzer) []string {
	names := make([]string, 0, len(analyzers)+1)
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	names = append(names, SuppressCheck)
	sort.Strings(names)
	return names
}

// Run executes the analyzers over the packages, applies //memlint:allow
// suppressions, rejects stale or malformed ones, and returns the
// surviving diagnostics sorted by (file, line, column, check, message)
// with duplicates removed — a deterministic report for a deterministic
// repository.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	if cfg == nil {
		cfg = &Config{}
	}
	mod := &module{pkgs: pkgs}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Config: cfg, mod: mod, diags: &raw, check: a.Name}
			a.Run(pass)
		}
		out = append(out, applySuppressions(pkg, raw, analyzers)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	dedup := out[:0]
	for i, d := range out {
		if i == 0 || d != out[i-1] {
			dedup = append(dedup, d)
		}
	}
	return dedup
}

// qualifiedType renders a named type as "importpath.Name" (or just Name
// for universe/builtin scope), the form used in Config lists.
func qualifiedType(obj *types.TypeName) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// enclosingFuncName names the innermost function declaration containing
// pos as "importpath.Func" or "importpath.Type.Method" ("" when pos is
// not inside a function declaration, e.g. a package-level var
// initializer).
func enclosingFuncName(pkg *Package, file *ast.File, pos token.Pos) string {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos > fd.End() {
			continue
		}
		name := pkg.PkgPath + "." + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			if tn := receiverTypeName(pkg, fd); tn != "" {
				name = pkg.PkgPath + "." + tn + "." + fd.Name.Name
			}
		}
		return name
	}
	return ""
}

// receiverTypeName returns the bare type name of a method's receiver
// ("Recorder" for func (r *Recorder) ...), or "".
func receiverTypeName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers look like T[P]; unwrap the index expression.
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// usedObject resolves an identifier or selector to the object it refers
// to, unwrapping parens.
func usedObject(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// stringSet builds a membership set from a slice.
func stringSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// splitQualified splits "importpath.Name" on the final dot.
func splitQualified(q string) (pkgPath, name string) {
	i := strings.LastIndex(q, ".")
	if i < 0 {
		return "", q
	}
	return q[:i], q[i+1:]
}
