package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` statements over maps whose bodies have
// order-dependent effects: appending to a slice declared outside the
// loop (unless a later statement in the same block sorts it), writing
// to an outer writer or stream, accumulating into an outer
// floating-point variable, or sending on an outer channel. Go
// randomizes map iteration order, so any of these makes output depend
// on the run — exactly what the serial≡parallel and CSV≡pack
// byte-identity guarantees forbid.
//
// Order-insensitive bodies pass untouched: building another map,
// integer counting, taking a max/min, and the collect-then-sort idiom
// (append keys, sort them after the loop) are all fine.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags map iteration with order-dependent effects (appends kept unsorted, " +
		"writes to outer writers, float accumulation, channel sends); sort the keys first",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		pm := buildParents([]*ast.File{file})
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRangeBody(pass, pm, rs)
			return true
		})
	}
	return nil
}

// checkMapRangeBody reports every order-dependent effect in the body of
// a map-range statement.
func checkMapRangeBody(pass *Pass, pm parentMap, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, pm, rs, st)
		case *ast.SendStmt:
			if obj := rootObject(pass, st.Chan); obj != nil && declaredOutside(obj, rs) {
				pass.Reportf(st.Pos(), "send on %s inside map iteration delivers values in random order; iterate sorted keys", obj.Name())
			}
		case *ast.CallExpr:
			checkMapRangeCall(pass, rs, st)
		}
		return true
	})
}

// checkMapRangeAssign flags float accumulation into outer variables and
// appends to outer slices that are never sorted afterwards.
func checkMapRangeAssign(pass *Pass, pm parentMap, rs *ast.RangeStmt, st *ast.AssignStmt) {
	// Compound float accumulation: x += v, x -= v, x *= v, x /= v.
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range st.Lhs {
			obj := rootObject(pass, lhs)
			if obj == nil || !declaredOutside(obj, rs) {
				continue
			}
			if isFloat(pass.TypeOf(lhs)) {
				pass.Reportf(st.Pos(), "floating-point accumulation into %s inside map iteration is order-dependent; iterate sorted keys", obj.Name())
			}
		}
	case token.ASSIGN, token.DEFINE:
		// x = x + v (float) and s = append(s, ...).
		for i, lhs := range st.Lhs {
			if i >= len(st.Rhs) {
				break
			}
			rhs := st.Rhs[i]
			obj := rootObject(pass, lhs)
			if obj == nil || !declaredOutside(obj, rs) {
				continue
			}
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
				if len(call.Args) > 0 && sameRoot(pass, call.Args[0], obj) {
					if !sortedAfter(pass, pm, rs, obj) {
						pass.Reportf(st.Pos(), "append to %s inside map iteration accumulates in random order and %s is never sorted afterwards; iterate sorted keys or sort the result", obj.Name(), obj.Name())
					}
				}
				continue
			}
			if bin, ok := rhs.(*ast.BinaryExpr); ok && isFloat(pass.TypeOf(lhs)) {
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					if sameRoot(pass, bin.X, obj) || sameRoot(pass, bin.Y, obj) {
						pass.Reportf(st.Pos(), "floating-point accumulation into %s inside map iteration is order-dependent; iterate sorted keys", obj.Name())
					}
				}
			}
		}
	}
}

// writerMethods are method names that emit output in call order.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"EndRecord": true, // fastcsv.Writer row terminator
}

// checkMapRangeCall flags writes to writers/streams: fmt.Print*/Fprint*
// package calls and Write*-family method calls on outer receivers.
func checkMapRangeCall(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if !writerMethods[sel.Sel.Name] {
		return
	}
	// Package-level fmt.Print* / fmt.Fprint*.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.ObjectOf(id).(*types.PkgName); ok {
			if pn.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "fmt.%s inside map iteration emits output in random order; iterate sorted keys", sel.Sel.Name)
			}
			return
		}
	}
	// Method call on a receiver declared outside the loop.
	if obj := rootObject(pass, sel.X); obj != nil && declaredOutside(obj, rs) {
		pass.Reportf(call.Pos(), "%s.%s inside map iteration emits output in random order; iterate sorted keys", obj.Name(), sel.Sel.Name)
	}
}

// sortedAfter reports whether a statement after rs in the same
// enclosing block sorts the slice held by obj — a sort/slices package
// call (sort.Strings, sort.Slice, slices.SortFunc, ...) or a
// same-package helper whose name starts with "sort", taking the slice
// as an argument. That is the sanctioned collect-then-sort idiom.
func sortedAfter(pass *Pass, pm parentMap, rs *ast.RangeStmt, obj types.Object) bool {
	var stmts []ast.Stmt
	switch p := pm[rs].(type) {
	case *ast.BlockStmt:
		stmts = p.List
	case *ast.CaseClause:
		stmts = p.Body
	case *ast.CommClause:
		stmts = p.Body
	default:
		return false
	}
	after := false
	for _, st := range stmts {
		if st == ast.Stmt(rs) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if !isSortingCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if sameRoot(pass, arg, obj) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isSortingCall recognizes calls that order a slice: anything from the
// sort or slices packages, or a function whose own name starts with
// "sort" (package-local helpers like sortGroups).
func isSortingCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.ObjectOf(id).(*types.PkgName); ok {
				path := pn.Imported().Path()
				return path == "sort" || path == "slices"
			}
		}
		return strings.HasPrefix(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.HasPrefix(strings.ToLower(fun.Name), "sort")
	}
	return false
}

// rootObject resolves the base object of an lvalue-ish expression:
// x → x, x.f → x, x[i] → x, *x → x, (x) → x.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return pass.ObjectOf(v)
		case *ast.SelectorExpr:
			// For pkg.Var the root is the var itself, not the package.
			if id, ok := v.X.(*ast.Ident); ok {
				if _, isPkg := pass.ObjectOf(id).(*types.PkgName); isPkg {
					return pass.ObjectOf(v.Sel)
				}
			}
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

func sameRoot(pass *Pass, e ast.Expr, obj types.Object) bool {
	r := rootObject(pass, e)
	return r != nil && r == obj
}

// declaredOutside reports whether obj's declaration lies outside the
// node's source range — i.e. the variable outlives one iteration.
func declaredOutside(obj types.Object, n ast.Node) bool {
	if obj.Pos() == token.NoPos {
		return true // package-level or imported
	}
	return obj.Pos() < n.Pos() || obj.Pos() > n.End()
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}
