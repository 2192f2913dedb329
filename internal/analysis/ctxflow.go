package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer flags dropped contexts: a function that accepts a
// context.Context parameter but never references it, while it (or
// anything it reaches through the module call graph, goroutines
// included) performs a blocking operation — a channel send/receive, a
// select without default, sync.Cond.Wait / WaitGroup.Wait, or one of
// the configured blocking calls (time.Sleep in DefaultConfig).
// Such a function advertises cancellability it does not
// deliver: the caller's deadline can never unblock it. Either thread
// the ctx into the blocking path or drop the parameter.
//
// Functions whose ctx parameter is unnamed or named "_" are flagged the
// same way — an explicit discard of a context on a blocking path is
// exactly the bug.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "a ctx parameter must flow into blocking work, not be dropped",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	conc := pass.conc()
	graph := pass.Graph()
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Params == nil {
				continue
			}
			for _, field := range fd.Type.Params.List {
				tv, ok := pass.Pkg.Info.Types[field.Type]
				if !ok || !isContextType(tv.Type) {
					continue
				}
				reportDroppedCtx(pass, conc, graph, fd, field)
			}
		}
	}
}

// reportDroppedCtx flags one context parameter field if every name in it
// is dropped and the function reaches blocking work.
func reportDroppedCtx(pass *Pass, conc *concFacts, graph *CallGraph, fd *ast.FuncDecl, field *ast.Field) {
	used := false
	for _, name := range field.Names {
		if name.Name == "_" {
			continue
		}
		obj := pass.Pkg.Info.Defs[name]
		if obj != nil && identUsed(pass.Pkg, fd.Body, obj) {
			used = true
		}
	}
	if used {
		return
	}
	fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	node := graph.Node(fn)
	if node == nil {
		return
	}
	blocked := graph.reachableNode(node, true, func(n *CallNode) bool {
		sum := conc.summaries[n.Fn]
		return sum != nil && sum.blocking != ""
	})
	if blocked == nil {
		return
	}
	desc := conc.summaries[blocked.Fn].blocking
	where := ""
	if blocked != node {
		where = fmt.Sprintf(" in %s", blocked.Name())
	}
	pass.Reportf(field.Pos(), "%s receives a context.Context but never uses it, yet reaches a blocking operation (%s%s); pass ctx down or drop the parameter",
		fd.Name.Name, desc, where)
}

// identUsed reports whether obj is referenced anywhere in body.
func identUsed(pkg *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
