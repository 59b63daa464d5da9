package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc checks functions whose doc comment carries
// `//cyclecover:noalloc` for allocation-introducing constructs. The
// annotated functions are the pipeline's pinned hot paths: the Verifier
// warm path, the exact inner branch and sweep evaluate, whose 0
// allocs/op contract the benchmark gate enforces at runtime, and the
// delta patch, whose Θ(n²) tally must come from scratch (the gate pins
// the few allocations it sanctions). This analyzer catches the
// regression classes a benchmark may not exercise.
//
// Flagged in warm code:
//   - map/slice composite literals and address-taken composite
//     literals (&T{...});
//   - make and new;
//   - append, unless it is a self-append (x = append(x, ...) or
//     x = append(x[:k], ...)) growing caller-owned scratch;
//   - closures capturing outer variables, and method values;
//   - interface boxing at call sites and conversions (a non-pointer
//     concrete value passed to an interface parameter escapes);
//   - any call into fmt, non-constant string concatenation, and
//     string<->[]byte/[]rune conversions.
//
// The contract covers the function's steady path: any branch that ends
// by returning (or panicking) is cold — error construction and
// grow-on-miss paths live there — and is skipped. Residual sanctioned
// sites opt out with `//cyclecover:allocok <reason>`.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "flags allocation-introducing constructs on the warm path of //cyclecover:noalloc functions; " +
		"opt out per line with //cyclecover:allocok <reason>",
	Run: runNoAlloc,
}

func runNoAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !FuncDirective(fd, "noalloc") {
				continue
			}
			nc := &noallocCheck{pass: pass, fn: fd, handled: map[ast.Node]bool{}}
			nc.block(fd.Body, false)
		}
	}
}

// noallocCheck walks one annotated function, tracking whether the
// current statement is on a cold (terminating-branch) path.
type noallocCheck struct {
	pass *Pass
	fn   *ast.FuncDecl
	// handled marks nodes a parent already adjudicated (sanctioned
	// self-appends, composite literals reported once under &).
	handled map[ast.Node]bool
}

// terminates reports whether a block's last statement unconditionally
// leaves the function (return or panic) — the marker of a cold branch.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// block walks a statement list at the given coldness.
func (nc *noallocCheck) block(b *ast.BlockStmt, cold bool) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		nc.stmt(s, cold)
	}
}

// stmt dispatches one statement, descending into branch bodies with
// their own coldness.
func (nc *noallocCheck) stmt(s ast.Stmt, cold bool) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			nc.stmt(s.Init, cold)
		}
		nc.expr(s.Cond, cold)
		nc.block(s.Body, cold || terminates(s.Body))
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			nc.block(e, cold || terminates(e))
		case *ast.IfStmt:
			nc.stmt(e, cold)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			nc.stmt(s.Init, cold)
		}
		if s.Tag != nil {
			nc.expr(s.Tag, cold)
		}
		nc.caseBodies(s.Body, cold)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			nc.stmt(s.Init, cold)
		}
		nc.caseBodies(s.Body, cold)
	case *ast.SelectStmt:
		nc.caseBodies(s.Body, cold)
	case *ast.ForStmt:
		if s.Init != nil {
			nc.stmt(s.Init, cold)
		}
		if s.Cond != nil {
			nc.expr(s.Cond, cold)
		}
		if s.Post != nil {
			nc.stmt(s.Post, cold)
		}
		nc.block(s.Body, cold)
	case *ast.RangeStmt:
		nc.expr(s.X, cold)
		nc.block(s.Body, cold)
	case *ast.BlockStmt:
		nc.block(s, cold)
	case *ast.AssignStmt:
		nc.sanctionSelfAppends(s)
		for _, e := range s.Rhs {
			nc.expr(e, cold)
		}
		for _, e := range s.Lhs {
			nc.expr(e, cold)
		}
	case *ast.ExprStmt:
		nc.expr(s.X, cold)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			nc.expr(e, cold)
		}
	case *ast.DeferStmt:
		nc.expr(s.Call, cold)
	case *ast.GoStmt:
		nc.expr(s.Call, cold)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.LabeledStmt, *ast.BranchStmt, *ast.EmptyStmt:
		if ls, ok := s.(*ast.LabeledStmt); ok {
			nc.stmt(ls.Stmt, cold)
		}
		if ds, ok := s.(*ast.DeclStmt); ok {
			ast.Inspect(ds, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					nc.expr(e, cold)
					return false
				}
				return true
			})
		}
		if sd, ok := s.(*ast.SendStmt); ok {
			nc.expr(sd.Chan, cold)
			nc.expr(sd.Value, cold)
		}
	}
}

// caseBodies walks each case clause body with per-clause coldness.
func (nc *noallocCheck) caseBodies(b *ast.BlockStmt, cold bool) {
	for _, cs := range b.List {
		var body []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			body = cs.Body
		case *ast.CommClause:
			body = cs.Body
		}
		clause := &ast.BlockStmt{List: body}
		c := cold || terminates(clause)
		for _, s := range body {
			nc.stmt(s, c)
		}
	}
}

// sanctionSelfAppends marks `x = append(x, ...)` and
// `x = append(x[:k], ...)` right-hand sides as allowed: they grow
// caller-owned scratch in place rather than minting a fresh slice.
func (nc *noallocCheck) sanctionSelfAppends(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, rhs := range s.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || nc.pass.Info.Uses[id] != types.Universe.Lookup("append") {
			continue
		}
		base := call.Args[0]
		if sl, ok := base.(*ast.SliceExpr); ok {
			base = sl.X
		}
		if types.ExprString(s.Lhs[i]) == types.ExprString(base) {
			nc.handled[call] = true
		}
	}
}

// expr scans one expression tree for allocating constructs; cold
// expressions are skipped wholesale.
func (nc *noallocCheck) expr(e ast.Expr, cold bool) {
	if e == nil || cold {
		return
	}
	pass := nc.pass
	ast.Inspect(e, func(n ast.Node) bool {
		if nc.handled[n] {
			nc.handled[n] = false
			if _, ok := n.(*ast.CallExpr); ok {
				// Sanctioned self-append: still scan its arguments.
				return true
			}
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := nc.captures(n); capt != "" {
				nc.report(n.Pos(), "closure captures %s and escapes; hoist the state into scratch", capt)
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := n.X.(*ast.CompositeLit); ok {
					nc.handled[cl] = true
					nc.report(n.Pos(), "&composite literal allocates; reuse scratch storage")
				}
			}
		case *ast.CompositeLit:
			t := pass.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				nc.report(n.Pos(), "map literal allocates; reuse scratch storage")
			case *types.Slice:
				nc.report(n.Pos(), "slice literal allocates; reuse scratch storage")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := pass.TypeOf(n); t != nil && isString(t) && !isConst(pass, n) {
					nc.report(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[n]; ok && sel.Kind() == types.MethodVal && !nc.handled[n] {
				nc.report(n.Pos(), "method value allocates a bound-method closure")
			}
		case *ast.CallExpr:
			nc.call(n)
		}
		return true
	})
}

// call adjudicates one warm call expression: builtins, fmt, interface
// boxing, and alloc-introducing conversions.
func (nc *noallocCheck) call(call *ast.CallExpr) {
	pass := nc.pass
	// The function position is a call, not a method value.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		nc.handled[sel] = true
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if pass.Info.Uses[id] == types.Universe.Lookup("make") {
			nc.report(call.Pos(), "make allocates; hoist into scratch setup")
			return
		}
		if pass.Info.Uses[id] == types.Universe.Lookup("new") {
			nc.report(call.Pos(), "new allocates; hoist into scratch setup")
			return
		}
		if pass.Info.Uses[id] == types.Universe.Lookup("append") {
			nc.report(call.Pos(), "append to a fresh slice allocates; append in place to caller-owned scratch (x = append(x, ...))")
			return
		}
	}
	// fmt anywhere on the warm path (Sprintf, Errorf, Fprintf, ...).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				nc.report(call.Pos(), "fmt.%s allocates (formatting + interface boxing)", sel.Sel.Name)
				return
			}
		}
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion: string <-> []byte/[]rune copies; conversion to
		// interface boxes.
		to := tv.Type
		if len(call.Args) == 1 {
			from := pass.TypeOf(call.Args[0])
			if from != nil {
				if stringByteConv(from, to) {
					nc.report(call.Pos(), "string/byte-slice conversion copies its data")
				}
				if types.IsInterface(to.Underlying()) && boxes(pass, call.Args[0], from) {
					nc.report(call.Pos(), "conversion to interface boxes a non-pointer value")
				}
			}
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			pt = params.At(params.Len() - 1).Type()
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil {
			continue
		}
		if boxes(pass, arg, at) {
			nc.report(arg.Pos(), "argument boxes a non-pointer %s into an interface parameter", at.String())
		}
	}
}

// boxes reports whether passing a value of type at as an interface
// allocates: concrete non-pointer, non-interface, non-constant values
// escape to the heap when boxed.
func boxes(pass *Pass, arg ast.Expr, at types.Type) bool {
	if isConst(pass, arg) {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Chan, *types.Map:
		return false
	}
	if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// stringByteConv reports a string <-> []byte/[]rune conversion.
func stringByteConv(from, to types.Type) bool {
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isConst reports whether the expression has a compile-time constant
// value (constants box to static interface data, not heap allocations).
func isConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// captures names one variable a func literal captures from its
// enclosing function, or returns "" for a capture-free literal (which
// compiles to a static function and does not allocate).
func (nc *noallocCheck) captures(fl *ast.FuncLit) string {
	var name string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := nc.pass.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Captured: declared inside the enclosing function but outside
		// the literal.
		if obj.Pos() >= nc.fn.Pos() && obj.Pos() < nc.fn.End() && (obj.Pos() < fl.Pos() || obj.Pos() >= fl.End()) {
			name = obj.Name()
		}
		return true
	})
	return name
}

// report emits a finding unless the site is annotated
// //cyclecover:allocok.
func (nc *noallocCheck) report(pos token.Pos, format string, args ...any) {
	if nc.pass.Exempt(pos, "allocok") {
		return
	}
	nc.pass.Reportf(pos, format, args...)
}
