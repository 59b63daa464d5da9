package analysis

import (
	"go/ast"
	"go/types"
)

// CtxDiscipline enforces the repository's context-propagation contract
// (DESIGN.md §5.5): cancellation must reach every layer, so
//
//  1. every exported function taking a context.Context must actually
//     use it — thread it (or a context derived from it) into a callee,
//     or poll Done/Err/Deadline/Value — and must not bind it to the
//     blank identifier; a `...Ctx` variant that ignores its context
//     silently un-cancels every caller above it;
//  2. no exported function without a context parameter may call
//     context.Background() or context.TODO(): a blocking operation has
//     exactly one exported form, and it takes ctx first, so a
//     context-free twin beside a ctx-taking one is a finding. The only
//     escape is `//cyclecover:ctxfree <reason>` in the doc comment.
var CtxDiscipline = &Analyzer{
	Name: "ctxdiscipline",
	Doc: "exported ctx-taking functions must thread or poll their context; exported functions " +
		"must not hardcode context.Background()/TODO() unless annotated //cyclecover:ctxfree <reason>",
	Run: runCtx,
}

func runCtx(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if obj := ctxParam(pass, fd); obj != nil || ctxParamBlank(pass, fd) {
				if obj == nil {
					pass.Reportf(fd.Pos(), "exported %s discards its context parameter (_); name it and thread it", fd.Name.Name)
					continue
				}
				checkCtxUse(pass, fd, obj)
				continue
			}
			checkNoBackground(pass, fd)
		}
	}
}

// ctxParam returns the object of a leading named context.Context
// parameter, or nil.
func ctxParam(pass *Pass, fd *ast.FuncDecl) *types.Var {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return nil
	}
	first := params.List[0]
	if !isContextType(pass.TypeOf(first.Type)) || len(first.Names) == 0 {
		return nil
	}
	name := first.Names[0]
	if name.Name == "_" {
		return nil
	}
	obj, _ := pass.Info.Defs[name].(*types.Var)
	return obj
}

// ctxParamBlank reports a leading context parameter bound to the blank
// identifier (or unnamed).
func ctxParamBlank(pass *Pass, fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	first := params.List[0]
	if !isContextType(pass.TypeOf(first.Type)) {
		return false
	}
	return len(first.Names) == 0 || first.Names[0].Name == "_"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	return ok && isType(n, "context", "Context")
}

// checkCtxUse verifies that the context parameter is threaded into a
// callee or polled.
func checkCtxUse(pass *Pass, fd *ast.FuncDecl, obj *types.Var) {
	used, threaded := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if usesObj(pass, arg, obj) {
					threaded = true
				}
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				switch n.Sel.Name {
				case "Done", "Err", "Deadline", "Value":
					threaded = true
				}
			}
		case *ast.Ident:
			if pass.Info.Uses[n] == obj {
				used = true
			}
		}
		return true
	})
	switch {
	case !used:
		pass.Reportf(fd.Pos(), "exported %s never uses its context; thread it into callees or poll ctx.Done/Err", fd.Name.Name)
	case !threaded:
		pass.Reportf(fd.Pos(), "exported %s uses its context but never threads it into a callee or polls it", fd.Name.Name)
	}
}

// usesObj reports whether the expression tree mentions obj.
func usesObj(pass *Pass, e ast.Expr, obj *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkNoBackground flags exported non-context functions that hardcode
// context.Background()/TODO().
func checkNoBackground(pass *Pass, fd *ast.FuncDecl) {
	var bg ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if bg != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Info.Uses[id].(*types.PkgName)
		if !ok || pn.Imported().Path() != "context" {
			return true
		}
		if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
			bg = n
		}
		return true
	})
	if bg == nil || pass.Exempt(fd.Pos(), "ctxfree") {
		return
	}
	pass.Reportf(fd.Pos(), "exported %s hardcodes context.Background/TODO; take ctx first or annotate //cyclecover:ctxfree <reason>", fd.Name.Name)
}
