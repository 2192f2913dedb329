package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockGuardAnalyzer enforces `// memlint:guard <mu>` annotations on
// struct fields: an annotated field may only be read or written while
// the named sibling mutex is held on the same receiver path.
//
//	type Held struct {
//		mu sync.Mutex
//		// memlint:guard mu
//		fenced bool
//	}
//
// The check is an intraprocedural lock-set walk (tracking mu.Lock(),
// mu.Unlock() and the `defer mu.Unlock()` idiom, per branch) combined
// with cross-function propagation over the module call graph: an
// unexported method (or one whose name ends in "Locked") that touches a
// guarded field unlocked is assumed to follow the callers-hold-the-lock
// convention, and the requirement moves to its call sites — every call
// site must then hold the guard on the same base, or be flagged.
//
// Deliberate simplifications, documented in docs/static-analysis.md:
// RLock counts the same as Lock (the check proves "some lock held", not
// exclusivity); accesses to receivers freshly built from a composite
// literal in the same function are exempt (constructors publish before
// sharing); a `go` statement never inherits the spawner's locks.
var LockGuardAnalyzer = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated `memlint:guard mu` must only be accessed with mu held",
	Run:  runLockGuard,
}

func runLockGuard(pass *Pass) {
	conc := pass.conc()
	for _, d := range conc.lockDiags {
		if d.pkg == pass.Pkg {
			pass.Reportf(d.pos, "%s", d.msg)
		}
	}
}

// guardedField describes one annotated struct field.
type guardedField struct {
	field     *types.Var      // the guarded field object
	guard     *types.Var      // the sibling mutex field object
	owner     *types.TypeName // the struct's named type (nil for anonymous structs)
	fieldName string
	guardName string
}

// collectGuards parses every `memlint:guard` annotation in the module,
// filling c.guards and reporting malformed annotations (unknown or
// non-mutex guard names) as lockguard findings.
func (c *concFacts) collectGuards(pkgs []*Package) {
	c.guards = make(map[*types.Var]*guardedField)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				owner, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
				c.collectStructGuards(pkg, st, owner)
				return true
			})
		}
	}
}

func (c *concFacts) collectStructGuards(pkg *Package, st *ast.StructType, owner *types.TypeName) {
	for _, field := range st.Fields.List {
		guardName, pos, ok := guardAnnotation(field)
		if !ok {
			continue
		}
		guard := structFieldByName(pkg, st, guardName)
		if guard == nil || !isMutexType(guard.Type()) {
			c.lockDiags = append(c.lockDiags, modDiag{
				pkg: pkg, pos: pos,
				msg: fmt.Sprintf("memlint:guard names %q, which is not a sync.Mutex/RWMutex field of the same struct", guardName),
			})
			continue
		}
		for _, name := range field.Names {
			fv, ok := pkg.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			c.guards[fv] = &guardedField{
				field: fv, guard: guard, owner: owner,
				fieldName: name.Name, guardName: guardName,
			}
		}
		if len(field.Names) == 0 {
			c.lockDiags = append(c.lockDiags, modDiag{
				pkg: pkg, pos: pos,
				msg: "memlint:guard cannot annotate an embedded field",
			})
		}
	}
}

// guardAnnotation extracts the guard name from a field's doc or trailing
// comment: `// memlint:guard mu` (space after // optional).
func guardAnnotation(field *ast.Field) (name string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, cmt := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(cmt.Text, "//"))
			rest, found := strings.CutPrefix(text, "memlint:guard")
			if !found {
				continue
			}
			// Only the first token names the guard; anything after it is
			// commentary.
			name = ""
			if fields := strings.Fields(rest); len(fields) > 0 {
				name = fields[0]
			}
			return name, cmt.Pos(), true
		}
	}
	return "", token.NoPos, false
}

// structFieldByName finds the *types.Var of the struct field called name.
func structFieldByName(pkg *Package, st *ast.StructType, name string) *types.Var {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				v, _ := pkg.Info.Defs[n].(*types.Var)
				return v
			}
		}
	}
	return nil
}

// isMutexType reports sync.Mutex or sync.RWMutex (possibly behind a
// pointer).
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockNeed records that a function requires a guard held by its callers,
// with the diagnostic to emit if no caller can discharge it.
type lockNeed struct {
	pkg *Package
	pos token.Pos
	msg string
}

// unprotAccess is one guarded-field access found without its guard held.
type unprotAccess struct {
	gf   *guardedField
	base string // rendered path of the receiver expression ("s", "s.inner")
	pos  token.Pos
	// propagate: the access is through the method's own receiver, in a
	// function following the callers-hold-the-lock convention, and not
	// inside a spawned goroutine — so the requirement moves to callers.
	propagate bool
}

// runLockGuard performs the module-wide analysis: per-function lock-set
// walks, then fixed-point propagation of caller-held requirements over
// the call graph, appending findings to c.lockDiags.
func (c *concFacts) runLockGuard(graph *CallGraph) {
	if len(c.guards) == 0 {
		return
	}
	heldAt := make(map[*ast.CallExpr]map[string]bool)
	needs := make(map[*types.Func]map[*guardedField]lockNeed)
	for _, node := range graph.Nodes() {
		w := &lockWalker{conc: c, pkg: node.Pkg, heldAt: heldAt}
		w.locals = compositeLocals(node.Pkg, node.Decl.Body)
		recvName := receiverName(node.Decl)
		w.walkBody(node.Decl.Body, lockState{}, false)
		convention := followsHeldConvention(node)
		for _, acc := range w.accesses {
			if acc.base != "" && w.locals[acc.base] {
				continue // freshly constructed in this function; not shared yet
			}
			direct := fmt.Sprintf("%s.%s is guarded by %q and accessed without it held",
				acc.base, acc.gf.fieldName, acc.base+"."+acc.gf.guardName)
			if acc.propagate && convention && recvName != "" && acc.base == recvName {
				if needs[node.Fn] == nil {
					needs[node.Fn] = make(map[*guardedField]lockNeed)
				}
				if _, seen := needs[node.Fn][acc.gf]; !seen {
					needs[node.Fn][acc.gf] = lockNeed{pkg: node.Pkg, pos: acc.pos, msg: direct}
				}
				continue
			}
			c.lockDiags = append(c.lockDiags, modDiag{pkg: node.Pkg, pos: acc.pos, msg: direct})
		}
	}
	c.propagateNeeds(graph, needs, heldAt)
}

// lockState is the set of held mutexes, keyed by rendered expression
// path ("s.mu").
type lockState map[string]bool

func copyState(h lockState) lockState {
	c := make(lockState, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

// lockWalker performs the intraprocedural lock-set walk of one function
// body, recording guarded-field accesses with their held sets and a
// held-set snapshot at every call site (for the propagation phase).
type lockWalker struct {
	conc     *concFacts
	pkg      *Package
	heldAt   map[*ast.CallExpr]map[string]bool
	locals   map[string]bool
	accesses []unprotAccess
}

func (w *lockWalker) walkBody(body *ast.BlockStmt, held lockState, inGo bool) {
	for _, s := range body.List {
		w.stmt(s, held, inGo)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held lockState, inGo bool) {
	switch x := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(x.X, held, inGo)
		if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
			if path, lock, ok := lockOp(w.pkg, call); ok {
				if lock {
					held[path] = true
				} else {
					delete(held, path)
				}
			}
		}
	case *ast.DeferStmt:
		if _, lock, ok := lockOp(w.pkg, x.Call); ok && !lock {
			// defer mu.Unlock(): the mutex stays held until return; no
			// change to the walked state.
			w.recordCall(x.Call, held)
			return
		}
		w.deferredOrGoCall(x.Call, held, inGo, false)
	case *ast.GoStmt:
		w.deferredOrGoCall(x.Call, held, inGo, true)
	case *ast.BlockStmt:
		w.walkBody(x, copyState(held), inGo)
	case *ast.IfStmt:
		if x.Init != nil {
			w.stmt(x.Init, held, inGo)
		}
		w.expr(x.Cond, held, inGo)
		w.stmt(x.Body, held, inGo)
		if x.Else != nil {
			w.stmt(x.Else, held, inGo)
		}
	case *ast.ForStmt:
		inner := copyState(held)
		if x.Init != nil {
			w.stmt(x.Init, inner, inGo)
		}
		if x.Cond != nil {
			w.expr(x.Cond, inner, inGo)
		}
		w.walkBody(x.Body, copyState(inner), inGo)
		if x.Post != nil {
			w.stmt(x.Post, copyState(inner), inGo)
		}
	case *ast.RangeStmt:
		w.expr(x.X, held, inGo)
		w.walkBody(x.Body, copyState(held), inGo)
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init, held, inGo)
		}
		if x.Tag != nil {
			w.expr(x.Tag, held, inGo)
		}
		for _, clause := range x.Body.List {
			cc := clause.(*ast.CaseClause)
			inner := copyState(held)
			for _, e := range cc.List {
				w.expr(e, inner, inGo)
			}
			for _, st := range cc.Body {
				w.stmt(st, inner, inGo)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init, held, inGo)
		}
		w.stmt(x.Assign, held, inGo)
		for _, clause := range x.Body.List {
			cc := clause.(*ast.CaseClause)
			inner := copyState(held)
			for _, st := range cc.Body {
				w.stmt(st, inner, inGo)
			}
		}
	case *ast.SelectStmt:
		for _, clause := range x.Body.List {
			cc := clause.(*ast.CommClause)
			inner := copyState(held)
			if cc.Comm != nil {
				w.stmt(cc.Comm, inner, inGo)
			}
			for _, st := range cc.Body {
				w.stmt(st, inner, inGo)
			}
		}
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			w.expr(e, held, inGo)
		}
		for _, e := range x.Lhs {
			w.expr(e, held, inGo)
		}
	case *ast.IncDecStmt:
		w.expr(x.X, held, inGo)
	case *ast.SendStmt:
		w.expr(x.Chan, held, inGo)
		w.expr(x.Value, held, inGo)
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.expr(e, held, inGo)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, held, inGo)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(x.Stmt, held, inGo)
	}
}

// expr scans an expression for guarded-field accesses, call sites and
// nested function literals under the current held set.
func (w *lockWalker) expr(e ast.Expr, held lockState, inGo bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// An inline literal runs on the current goroutine with the
			// current locks; its body is walked with a copy of the state.
			w.walkBody(x.Body, copyState(held), inGo)
			return false
		case *ast.CallExpr:
			w.recordCall(x, held)
		case *ast.SelectorExpr:
			w.checkAccess(x, held, inGo)
		}
		return true
	})
}

// deferredOrGoCall handles the immediate call of a defer or go
// statement. A spawned goroutine starts with no locks held; a deferred
// call runs with whatever is held at return, approximated by the current
// state.
func (w *lockWalker) deferredOrGoCall(call *ast.CallExpr, held lockState, inGo, isGo bool) {
	effective := held
	if isGo {
		effective = lockState{}
	}
	for _, arg := range call.Args {
		w.expr(arg, held, inGo) // arguments evaluate at the statement, under current locks
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.walkBody(lit.Body, copyState(effective), inGo || isGo)
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X, held, inGo)
	}
	w.recordCall(call, effective)
}

var emptyHeld = map[string]bool{}

// recordCall snapshots the held set at a call site, keyed by the call
// expression so the propagation phase can match graph edges to it.
func (w *lockWalker) recordCall(call *ast.CallExpr, held lockState) {
	if _, done := w.heldAt[call]; done {
		return // first visit wins (go/defer record their effective state first)
	}
	if len(held) == 0 {
		w.heldAt[call] = emptyHeld
		return
	}
	w.heldAt[call] = copyState(held)
}

// checkAccess records sel if it reads/writes a guarded field while its
// guard is not held on the same base path.
func (w *lockWalker) checkAccess(sel *ast.SelectorExpr, held lockState, inGo bool) {
	s, ok := w.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fv, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	gf, ok := w.conc.guards[fv]
	if !ok {
		return
	}
	base := exprPath(sel.X)
	if base != "" && held[base+"."+gf.guardName] {
		return
	}
	w.accesses = append(w.accesses, unprotAccess{
		gf: gf, base: base, pos: sel.Sel.Pos(), propagate: !inGo,
	})
}

// lockOp recognizes path.Lock()/RLock()/Unlock()/RUnlock() on a
// sync.Mutex or RWMutex, returning the rendered mutex path and whether
// the call acquires (true) or releases (false).
func lockOp(pkg *Package, call *ast.CallExpr) (path string, lock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		lock = false
	default:
		return "", false, false
	}
	tv, okT := pkg.Info.Types[sel.X]
	if !okT || !isMutexType(tv.Type) {
		return "", false, false
	}
	path = exprPath(sel.X)
	if path == "" {
		return "", false, false
	}
	return path, lock, true
}

// exprPath renders a selector chain of identifiers as a dotted path
// ("s.inner"), unwrapping parens, & and *. Anything else (calls,
// indexing) yields "".
func exprPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return exprPath(x.X)
		}
	case *ast.StarExpr:
		return exprPath(x.X)
	}
	return ""
}

// compositeLocals returns the names of local variables assigned a
// composite literal (or its address) in body — the constructor pattern,
// where the value is not yet shared and needs no locking.
func compositeLocals(pkg *Package, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	isComposite := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		if _, ok := e.(*ast.CompositeLit); ok {
			return true
		}
		if call, ok := e.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
					return true
				}
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, rhs := range x.Rhs {
				if !isComposite(rhs) {
					continue
				}
				if id, ok := x.Lhs[i].(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) != len(x.Values) {
				return true
			}
			for i, v := range x.Values {
				if isComposite(v) {
					out[x.Names[i].Name] = true
				}
			}
		}
		return true
	})
	return out
}

// receiverName returns the name of the method's receiver, or "".
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return ""
	}
	name := fd.Recv.List[0].Names[0].Name
	if name == "_" {
		return ""
	}
	return name
}

// followsHeldConvention reports whether a function is allowed to assume
// its callers hold the guard: unexported methods and methods whose name
// ends in "Locked" (the repo's publishLocked convention). Exported
// non-Locked methods form the public API and must lock for themselves.
func followsHeldConvention(node *CallNode) bool {
	name := node.Fn.Name()
	return strings.HasSuffix(name, "Locked") || !ast.IsExported(name)
}

// propagateNeeds runs the fixed point: a function's caller-held
// requirement is discharged by call sites that hold the guard, moved to
// callers that themselves follow the convention (same receiver), and
// reported as a violation everywhere else.
func (c *concFacts) propagateNeeds(graph *CallGraph, needs map[*types.Func]map[*guardedField]lockNeed, heldAt map[*ast.CallExpr]map[string]bool) {
	edgeSatisfied := func(e *CallEdge, gf *guardedField) bool {
		if e.Kind == EdgeGo {
			return false // goroutines never inherit the spawner's locks
		}
		base := callBasePath(e.Site)
		return base != "" && heldAt[e.Site][base+"."+gf.guardName]
	}
	// propagatable: the caller may carry the requirement upward — it
	// calls through its own receiver, follows the convention itself, and
	// the transfer is a synchronous call.
	edgePropagatable := func(e *CallEdge, gf *guardedField) bool {
		if e.Kind == EdgeGo {
			return false
		}
		recv := receiverName(e.Caller.Decl)
		return recv != "" && callBasePath(e.Site) == recv && followsHeldConvention(e.Caller)
	}
	for changed := true; changed; {
		changed = false
		for _, node := range graph.Nodes() {
			for gf := range needs[node.Fn] {
				for _, e := range node.In {
					if e.Caller.Decl == nil || edgeSatisfied(e, gf) || !edgePropagatable(e, gf) {
						continue
					}
					if _, seen := needs[e.Caller.Fn][gf]; seen {
						continue
					}
					if needs[e.Caller.Fn] == nil {
						needs[e.Caller.Fn] = make(map[*guardedField]lockNeed)
					}
					needs[e.Caller.Fn][gf] = lockNeed{
						pkg: e.Caller.Pkg, pos: e.Site.Pos(),
						msg: fmt.Sprintf("call to %s requires %q held (guards %s)",
							e.Callee.Fn.Name(), callBasePath(e.Site)+"."+gf.guardName, ownerDotField(gf)),
					}
					changed = true
				}
			}
		}
	}
	// Emission: requirements that no caller discharges become findings.
	for _, node := range graph.Nodes() {
		reqs := needs[node.Fn]
		if len(reqs) == 0 {
			continue
		}
		for _, gf := range sortedGuardKeys(reqs) {
			need := reqs[gf]
			if len(node.In) == 0 {
				// Never called from analyzed code: a *Locked helper keeps
				// its contract in its name; anything else is unproven.
				if !strings.HasSuffix(node.Fn.Name(), "Locked") {
					c.lockDiags = append(c.lockDiags, modDiag{pkg: need.pkg, pos: need.pos, msg: need.msg})
				}
				continue
			}
			for _, e := range node.In {
				if e.Caller.Decl == nil || edgeSatisfied(e, gf) || edgePropagatable(e, gf) {
					continue
				}
				c.lockDiags = append(c.lockDiags, modDiag{
					pkg: e.Caller.Pkg, pos: e.Site.Pos(),
					msg: fmt.Sprintf("call to %s requires %q held (guards %s)",
						e.Callee.Fn.Name(), requiredPathAt(e, gf), ownerDotField(gf)),
				})
			}
		}
	}
}

// requiredPathAt renders the guard the caller would need at this call
// site ("s.mu"), falling back to the bare guard name for unrenderable
// bases.
func requiredPathAt(e *CallEdge, gf *guardedField) string {
	if base := callBasePath(e.Site); base != "" {
		return base + "." + gf.guardName
	}
	return gf.guardName
}

func ownerDotField(gf *guardedField) string {
	if gf.owner != nil {
		return gf.owner.Name() + "." + gf.fieldName
	}
	return gf.fieldName
}

// callBasePath renders the receiver path of a method call site ("s" in
// s.flushLocked()), or "" for non-method calls.
func callBasePath(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return exprPath(sel.X)
	}
	return ""
}

// sortedGuardKeys orders guarded fields by declaration position for
// deterministic emission.
func sortedGuardKeys(m map[*guardedField]lockNeed) []*guardedField {
	keys := make([]*guardedField, 0, len(m))
	for gf := range m {
		keys = append(keys, gf)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].field.Pos() < keys[j].field.Pos() })
	return keys
}
