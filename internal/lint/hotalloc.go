package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the zero-allocation discipline of functions
// annotated with a `//mira:hotpath` doc-comment directive: the fastcsv
// record loops and the dist sorted-core statistics, whose ≈99%-allocation-reduction pins are the product of
// keeping these exact bodies garbage-free. Inside an annotated
// function it flags the constructs that put allocations back:
//
//   - fmt formatting calls (Sprintf and friends allocate their result
//     and box every argument);
//   - string↔[]byte conversions, except in the contexts the compiler
//     compiles allocation-free (map index, comparison, switch, range,
//     len/cap);
//   - append onto a slice that starts empty with no capacity (growth
//     reallocates; pre-size it or reuse a caller buffer);
//   - capturing closures that escape their creating call (each closure
//     value is heap-allocated);
//   - interface boxing: passing or returning a concrete non-pointer
//     value where an interface is expected.
//
// Deliberate exceptions carry a //lint:ignore hotalloc comment with the
// reason, which doubles as documentation at the allocation site.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags allocating constructs (fmt calls, string<->[]byte conversions, " +
		"unbounded append, escaping closures, interface boxing) in //mira:hotpath functions",
	Run: runHotAlloc,
}

const hotpathDirective = "//mira:hotpath"

// hasDirective reports whether a doc comment group contains a comment
// line starting with the directive.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		pm := buildParents([]*ast.File{file})
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, hotpathDirective) {
				continue
			}
			h := &hotChecker{pass: pass, pm: pm, fn: fd}
			h.check()
		}
	}
	return nil
}

type hotChecker struct {
	pass *Pass
	pm   parentMap
	fn   *ast.FuncDecl
}

func (h *hotChecker) check() {
	// sigs tracks the result signature of the innermost function
	// (declaration or literal) while walking, so return statements are
	// judged against the right result types.
	var sigs []*types.Signature
	if obj, ok := h.pass.ObjectOf(h.fn.Name).(*types.Func); ok {
		sigs = append(sigs, obj.Type().(*types.Signature))
	}
	var nodes []ast.Node
	ast.Inspect(h.fn.Body, func(n ast.Node) bool {
		if n == nil {
			ended := nodes[len(nodes)-1]
			nodes = nodes[:len(nodes)-1]
			if _, ok := ended.(*ast.FuncLit); ok && len(sigs) > 1 {
				sigs = sigs[:len(sigs)-1]
			}
			return true
		}
		nodes = append(nodes, n)
		switch v := n.(type) {
		case *ast.FuncLit:
			if sig, ok := h.pass.TypeOf(v).(*types.Signature); ok {
				sigs = append(sigs, sig)
			}
			h.checkFuncLit(v)
		case *ast.CallExpr:
			h.checkCall(v)
		case *ast.ReturnStmt:
			if len(sigs) > 0 {
				h.checkReturn(v, sigs[len(sigs)-1])
			}
		}
		return true
	})
}

// checkCall dispatches the call-shaped checks: fmt calls, conversions,
// unbounded append, and argument boxing.
func (h *hotChecker) checkCall(call *ast.CallExpr) {
	// Type conversion?
	if tv, ok := h.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		h.checkConversion(call)
		return
	}
	// Builtin?
	if id := calleeIdent(call.Fun); id != nil {
		if b, ok := h.pass.ObjectOf(id).(*types.Builtin); ok {
			if b.Name() == "append" {
				h.checkAppend(call)
			}
			return
		}
	}
	if fn := h.calleeFunc(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		h.pass.Reportf(call.Pos(), "fmt.%s allocates its result and boxes its arguments; hot paths build output with strconv.Append* into a reused buffer", fn.Name())
		return
	}
	h.checkArgBoxing(call)
}

// checkConversion flags string(b []byte) and []byte(s string) except in
// the contexts the compiler keeps allocation-free.
func (h *hotChecker) checkConversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	to := h.pass.TypeOf(call.Fun)
	from := h.pass.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return
	}
	s2b := isString(from) && isByteSlice(to)
	b2s := isByteSlice(from) && isString(to)
	if !s2b && !b2s {
		return
	}
	if h.nonAllocConversionContext(call) {
		return
	}
	if b2s {
		h.pass.Reportf(call.Pos(), "string([]byte) conversion copies the bytes; keep the field as []byte or intern it")
	} else {
		h.pass.Reportf(call.Pos(), "[]byte(string) conversion copies the string; operate on the original bytes")
	}
}

// nonAllocConversionContext recognizes the compiler-optimized uses of a
// string↔[]byte conversion: m[string(b)], comparisons, switch tags and
// case values, range string(b), and len/cap.
func (h *hotChecker) nonAllocConversionContext(call *ast.CallExpr) bool {
	child := ast.Node(call)
	parent := h.pm[child]
	// Unwrap parentheses.
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		child = p
		parent = h.pm[p]
	}
	switch p := parent.(type) {
	case *ast.IndexExpr:
		if p.Index == child {
			if t := h.pass.TypeOf(p.X); t != nil {
				_, isMap := t.Underlying().(*types.Map)
				return isMap
			}
		}
	case *ast.BinaryExpr:
		switch p.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return true
		}
	case *ast.SwitchStmt:
		return p.Tag == child
	case *ast.CaseClause:
		return true
	case *ast.RangeStmt:
		return p.X == child
	case *ast.CallExpr:
		if id := calleeIdent(p.Fun); id != nil {
			if b, ok := h.pass.ObjectOf(id).(*types.Builtin); ok {
				return b.Name() == "len" || b.Name() == "cap"
			}
		}
	}
	return false
}

// checkAppend flags append onto a slice that was created in this
// function with no capacity: every growth step reallocates and copies.
// Appends onto parameters, struct fields, and capacity-carrying make
// calls are the reuse idiom and pass.
func (h *hotChecker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := h.pass.ObjectOf(dst).(*types.Var)
	if !ok || obj.IsField() {
		return
	}
	// Declared inside this function?
	if obj.Pos() < h.fn.Pos() || obj.Pos() > h.fn.End() {
		return
	}
	init, isLocalDef := h.localInit(obj)
	if !isLocalDef {
		return // parameter or result: caller-owned buffer
	}
	if freshCapless(init) {
		h.pass.Reportf(call.Pos(), "append grows %s from zero capacity, reallocating as it goes; pre-size it (make with capacity) or append into a reused buffer", obj.Name())
	}
}

// localInit finds the initializer expression of a variable defined in
// the checked function body (nil for `var x T`). The second result is
// false when the object is not body-defined (parameter, receiver,
// named result).
func (h *hotChecker) localInit(obj *types.Var) (ast.Expr, bool) {
	var init ast.Expr
	found := false
	ast.Inspect(h.fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range v.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && h.pass.TypesInfo.Defs[id] == obj {
					found = true
					if len(v.Rhs) == len(v.Lhs) {
						init = v.Rhs[i]
					}
					return false
				}
			}
		case *ast.ValueSpec:
			for i, name := range v.Names {
				if h.pass.TypesInfo.Defs[name] == obj {
					found = true
					if i < len(v.Values) {
						init = v.Values[i]
					}
					return false
				}
			}
		}
		return true
	})
	return init, found
}

// freshCapless reports whether init yields a slice with no spare
// capacity to grow into: nil (`var x []T`), a composite literal, or a
// two-argument make.
func freshCapless(init ast.Expr) bool {
	switch v := init.(type) {
	case nil:
		return true
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" {
			return len(v.Args) < 3
		}
	}
	return false
}

// checkFuncLit flags closures that capture variables and escape their
// creating expression; each such closure is one heap allocation per
// execution of the enclosing function.
func (h *hotChecker) checkFuncLit(lit *ast.FuncLit) {
	captured := h.capturedVars(lit)
	if len(captured) == 0 {
		return
	}
	parent := h.pm[ast.Node(lit)]
	// Immediately invoked: func(){...}() does not escape.
	if call, ok := parent.(*ast.CallExpr); ok && call.Fun == ast.Expr(lit) {
		return
	}
	// Bound to a local that is only ever called directly: the compiler
	// keeps the closure on the stack.
	if asg, ok := parent.(*ast.AssignStmt); ok && asg.Tok == token.DEFINE && len(asg.Lhs) == 1 {
		if id, ok := asg.Lhs[0].(*ast.Ident); ok {
			if obj := h.pass.TypesInfo.Defs[id]; obj != nil && h.onlyCalledDirectly(obj) {
				return
			}
		}
	}
	h.pass.Reportf(lit.Pos(), "closure capturing %s escapes and heap-allocates per call; pass the state explicitly", strings.Join(captured, ", "))
}

// capturedVars lists the names of enclosing-function variables the
// literal reads or writes.
func (h *hotChecker) capturedVars(lit *ast.FuncLit) []string {
	seen := map[types.Object]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := h.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Captured: declared in the enclosing function (including its
		// parameters), outside the literal.
		if v.Pos() >= h.fn.Pos() && v.Pos() <= h.fn.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			seen[v] = true
			names = append(names, v.Name())
		}
		return true
	})
	return names
}

// onlyCalledDirectly reports whether every use of obj in the hot
// function is as the callee of a call expression.
func (h *hotChecker) onlyCalledDirectly(obj types.Object) bool {
	direct := true
	ast.Inspect(h.fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || h.pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if call, ok := h.pm[ast.Node(id)].(*ast.CallExpr); !ok || call.Fun != ast.Expr(id) {
			direct = false
			return false
		}
		return true
	})
	return direct
}

// checkArgBoxing flags concrete non-pointer values passed where the
// callee takes an interface: the conversion stores the value in a
// freshly allocated box (pointer-shaped values are stored directly and
// are exempt).
func (h *hotChecker) checkArgBoxing(call *ast.CallExpr) {
	sig, ok := h.pass.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		h.checkBox(arg, pt, "passing %s as %s boxes it into a fresh allocation")
	}
}

// checkReturn flags concrete non-pointer values returned as interface
// results.
func (h *hotChecker) checkReturn(ret *ast.ReturnStmt, sig *types.Signature) {
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return // naked return or comma-ok spread; nothing boxed here
	}
	for i, res := range ret.Results {
		h.checkBox(res, sig.Results().At(i).Type(), "returning %s as %s boxes it into a fresh allocation")
	}
}

func (h *hotChecker) checkBox(e ast.Expr, target types.Type, format string) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := h.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || types.IsInterface(tv.Type) || pointerShaped(tv.Type) {
		return
	}
	h.pass.Reportf(e.Pos(), format, tv.Type.String(), target.String())
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && e.Kind() == types.Byte
}

// pointerShaped reports whether values of t fit in an interface's data
// word without boxing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Chan, *types.Map:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func calleeIdent(fun ast.Expr) *ast.Ident {
	switch v := fun.(type) {
	case *ast.Ident:
		return v
	case *ast.ParenExpr:
		return calleeIdent(v.X)
	}
	return nil
}

// calleeFunc resolves the called function object, if it is a named
// function or method.
func (h *hotChecker) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := h.pass.ObjectOf(fun).(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := h.pass.ObjectOf(fun.Sel).(*types.Func)
		return f
	case *ast.ParenExpr:
		inner := *call
		inner.Fun = fun.X
		return h.calleeFunc(&inner)
	}
	return nil
}
