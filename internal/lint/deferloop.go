package lint

import (
	"go/ast"
	"go/token"
)

// DeferLoopAnalyzer guards the resource lifecycle of iteration (DESIGN.md
// §13): a defer inside a loop does not run at the end of the iteration — it
// runs when the whole function returns. A segment-scan loop that defers
// each segment file's Close pins every segment open at once, turning an
// O(1)-resident streaming pass into O(segments) descriptors; a deferred
// Unlock in a loop holds the first iteration's lock across all later ones.
//
// Only defers of releasing calls are flagged — Close, Unlock, RUnlock,
// whether deferred directly or wrapped in a function literal. A defer
// inside a function literal that is itself called per iteration is the
// correct fix and is not flagged.
var DeferLoopAnalyzer = &Analyzer{
	Name: "deferloop",
	Doc:  "defer of a releasing call (Close/Unlock) inside a loop delays the release to function exit",
	Run:  runDeferLoop,
}

var releasingNames = map[string]bool{
	"Close":   true,
	"Unlock":  true,
	"RUnlock": true,
}

func runDeferLoop(pass *Pass) {
	reported := map[token.Pos]bool{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			checkLoopBody(pass, body, reported)
			return true
		})
	}
}

// checkLoopBody flags releasing defers in a loop body, skipping function
// literals: their defers fire when the literal returns, not at the
// enclosing function's exit.
func checkLoopBody(pass *Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		name, ok := releasingCall(ds.Call)
		if !ok || reported[ds.Pos()] {
			return true
		}
		reported[ds.Pos()] = true
		pass.Reportf(ds.Pos(), "defer %s inside a loop releases nothing until the function returns; every iteration pins another resource — release at the end of the iteration (or wrap the body in a function)", name)
		return true
	})
}

// releasingCall reports whether a deferred call releases a resource: a
// direct Close/Unlock/RUnlock method call, or a function literal whose body
// performs one.
func releasingCall(call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && releasingNames[sel.Sel.Name] && len(call.Args) == 0 {
		if id, ok := sel.X.(*ast.Ident); ok {
			return id.Name + "." + sel.Sel.Name + "()", true
		}
		return sel.Sel.Name + "()", true
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		found := ""
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if found != "" {
				return false
			}
			if inner, ok := n.(*ast.CallExpr); ok {
				if sel, ok := inner.Fun.(*ast.SelectorExpr); ok && releasingNames[sel.Sel.Name] {
					found = "func() { ... " + sel.Sel.Name + "() }"
				}
			}
			return true
		})
		if found != "" {
			return found, true
		}
	}
	return "", false
}
