package analysis

import (
	"go/ast"
)

// DurableAnalyzer flags direct use of os.WriteFile, os.Create and
// os.Rename outside the packages that implement the durable write path
// (internal/atomicio's stage→fsync→rename→dir-fsync sequence). A direct
// write can be observed truncated or half-written after a crash, which
// must never happen to an artifact; every artifact write elsewhere must
// go through internal/atomicio.
//
// Intentional non-artifact uses (a scratch file in a tool, a
// deliberately torn write in a crash simulator) are silenced in place
// with //memlint:allow durable — <reason>.
var DurableAnalyzer = &Analyzer{
	Name: "durable",
	Doc:  "direct os.WriteFile/os.Create/os.Rename outside the durable-write packages",
	Run:  runDurable,
}

var durableFuncs = stringSet([]string{"WriteFile", "Create", "Rename"})

func runDurable(pass *Pass) {
	if stringSet(pass.Config.DurableWriterPkgs)[pass.Pkg.PkgPath] {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Pkg.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" || !durableFuncs[obj.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(), "direct os.%s can tear on crash; write artifacts through internal/atomicio", obj.Name())
			return true
		})
	}
}
