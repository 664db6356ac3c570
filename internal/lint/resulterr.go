package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ResultErrAnalyzer guards the contract PR 1 introduced on detect.Result:
// CheckAll no longer aborts on a failing constraint but records the failure
// on Result.Err, leaving every other field zero. A caller that reads
// Violated or Test.P without consulting Err turns "this test errored" into
// "p = 0, reject" — a silent false discovery. The analyzer enforces two
// rules outside the detect package itself:
//
//  1. the error return of detect.Check, CheckContext, CheckAll,
//     CheckAllContext or CheckAllStream must not be discarded
//     (blank-assigned or dropped entirely);
//  2. a function that reads result fields (Violated, Test, Strata, Leaves)
//     after calling one of the family entry points (CheckAll,
//     CheckAllContext, CheckAllStream) must also read Result.Err somewhere.
//
// The per-function view is deliberately conservative: a function that only
// forwards the []Result without looking inside is exempt — the reader that
// eventually consumes the fields is the one that must check Err.
var ResultErrAnalyzer = &Analyzer{
	Name: "resulterr",
	Doc:  "callers of detect.Check/CheckAll and their Context and Stream forms must consult errors before reading p-values or rejections",
	Run:  runResultErr,
}

// resultFields are the detect.Result fields that are meaningless when Err
// is set.
var resultFields = map[string]bool{
	"Violated": true,
	"Test":     true,
	"Strata":   true,
	"Leaves":   true,
}

func runResultErr(pass *Pass) {
	if strings.HasSuffix(pass.Pkg.ImportPath, "internal/detect") {
		// The detect package builds Results; the contract binds its callers.
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkResultErrFunc(pass, fd.Body)
		}
	}
}

// checkResultErrFunc applies both rules within one function body (nested
// closures included: a closure consulting Err counts for its enclosing
// function, matching how handler helpers are written).
func checkResultErrFunc(pass *Pass, body *ast.BlockStmt) {
	var familyCalls []*ast.CallExpr
	errConsulted := false
	fieldRead := false

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			name, isDetect := detectCallName(pass, call)
			if !isDetect || len(n.Lhs) != 2 {
				return true
			}
			if isBlankIdent(n.Lhs[1]) {
				pass.Reportf(call.Pos(), "error result of detect.%s discarded; an unchecked failure reads as a zero p-value", name)
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, isDetect := detectCallName(pass, call); isDetect {
					pass.Reportf(call.Pos(), "results of detect.%s discarded entirely; check the error and Result.Err", name)
				}
			}
		case *ast.CallExpr:
			if name, isDetect := detectCallName(pass, n); isDetect && entryPoints[name] {
				familyCalls = append(familyCalls, n)
			}
		case *ast.SelectorExpr:
			if !isDetectResult(pass.TypeOf(n.X)) {
				return true
			}
			switch {
			case n.Sel.Name == "Err":
				errConsulted = true
			case resultFields[n.Sel.Name]:
				fieldRead = true
			}
		}
		return true
	})

	if fieldRead && !errConsulted {
		for _, call := range familyCalls {
			name, _ := detectCallName(pass, call)
			pass.Reportf(call.Pos(), "detect.%s results are read without consulting Result.Err; an errored constraint carries a zero p-value and a false Violated", name)
		}
	}
}

// entryPoints maps each detect entry point the analyzer checks to whether
// it checks a family: those return a []Result whose per-constraint
// failures sit on Result.Err.
var entryPoints = map[string]bool{
	"Check":           false,
	"CheckContext":    false,
	"CheckAll":        true,
	"CheckAllContext": true,
	"CheckAllStream":  true,
}

// detectCallName reports whether a call targets one of detect's
// entryPoints, returning the function name.
func detectCallName(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if !strings.HasSuffix(fn.Pkg().Path(), "internal/detect") {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false
	}
	if _, ok := entryPoints[fn.Name()]; !ok {
		return "", false
	}
	return fn.Name(), true
}

// isDetectResult reports whether t is detect.Result (possibly behind a
// pointer).
func isDetectResult(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Result" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/detect")
}

// isBlankIdent reports whether an expression is the blank identifier.
func isBlankIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
