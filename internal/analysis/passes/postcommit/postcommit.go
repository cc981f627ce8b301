// Package postcommit pins how the read path announces commits:
// readpath.Broker publishes and the OnCommit/OnApplied hooks tell
// subscribers "this state is now visible", so they must never fire
// while a mutex is held (a slow or wedged subscriber pipeline must not
// extend a critical section). That they fire after the commit needs no
// check: a hook's input is the change set xmldb.Batch returns, which
// exists only once the batch committed and unlocked. The analyzer also
// restricts readpath.NewBroker construction to the system wiring,
// keeping the single-broadcaster topology: one broker per system is
// what makes "subscribers see every commit exactly once" checkable at
// all.
package postcommit

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/inspect"
	"repro/internal/analysis/passes/lockspan"
)

const (
	brokerPublish = "(*repro/internal/readpath.Broker).Publish"
	newBroker     = "repro/internal/readpath.NewBroker"
)

// constructors are the packages allowed to call readpath.NewBroker:
// the system wiring in core, and readpath itself.
var constructors = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/readpath": true,
}

// hookNames are the commit-hook conventions: func-typed fields (or
// variables) whose invocation announces an applied commit. Calling a
// METHOD of these names (the registration setters) is not an
// invocation and is not matched.
var hookNames = map[string]bool{
	"onCommit":  true,
	"onApplied": true,
	"OnCommit":  true,
	"OnApplied": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "postcommit",
	Doc: "one broker; broker publishes and commit hooks fire outside locks\n\n" +
		"Publishing under a mutex couples subscriber latency to the\n" +
		"critical section.",
	Requires: []*analysis.Analyzer{inspect.Analyzer, lockspan.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	in := inspect.Of(pass)

	// Single-broadcaster: construction sites are restricted.
	if !constructors[pass.Path] {
		in.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
			call := n.(*ast.CallExpr)
			if analysis.IsFunc(pass.TypesInfo, call, newBroker) {
				pass.Reportf(call.Pos(),
					"readpath.NewBroker outside the system wiring — the store has one broker, constructed in core")
			}
		})
	}

	// No publish or hook invocation while a lock is held.
	for _, r := range lockspan.Of(pass).Regions {
		lockspan.InspectStmts(r.Stmts, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if analysis.IsFunc(pass.TypesInfo, call, brokerPublish) {
				pass.Reportf(call.Pos(),
					"broker publish inside locked region %s — publish after the commit unlocks", r.Lock.Expr)
			} else if name := hookCall(pass.TypesInfo, call); name != "" {
				pass.Reportf(call.Pos(),
					"commit hook %s invoked inside locked region %s — fire hooks after unlock", name, r.Lock.Expr)
			}
			return true
		})
	}

	return nil, nil
}

// hookCall reports the hook name when the call invokes a func-typed
// field or variable with a commit-hook name, "" otherwise. Method calls
// (the registration setters share these names) do not match.
func hookCall(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if !hookNames[fun.Sel.Name] {
			return ""
		}
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			if _, isSig := sel.Obj().Type().Underlying().(*types.Signature); isSig {
				return fun.Sel.Name
			}
		}
	case *ast.Ident:
		if !hookNames[fun.Name] {
			return ""
		}
		if v, ok := info.Uses[fun].(*types.Var); ok {
			if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
				return fun.Name
			}
		}
	}
	return ""
}
