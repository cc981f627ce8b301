// Package versionbump pins the shape that makes xmldb's commit rule
// hold by construction. The version counter is what the read path's
// answer cache and standing queries key their invalidation on
// (docs/INVARIANTS.md); it must move once for every batch that changed
// state, before the write lock is released. Batch does exactly that
// when its Tx is dirty (TestBatchCommitsOnce), so the rule reduces to
// four structural checks on package xmldb:
//
//   - the version field is written only inside Batch, the one commit
//     point;
//   - Tx values are built only inside Batch, so every Tx method runs
//     under Batch's lock with Batch's bump to follow;
//   - tracked state — the collections map, a collection's
//     records/order, the spatial index's Insert/Delete — is mutated
//     only by methods of Tx;
//   - a Tx method marks the batch dirty (tx.touch()) before its first
//     mutation, so a write that fails partway still bumps.
//
// The order check is lexical: a touch anywhere earlier in the method's
// source satisfies it, which is exact for the straight-line write
// methods the package has.
package versionbump

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/passes/inspect"
)

// checked is the package whose state carries the version invariant.
// Golden testdata mirrors this import path.
const checked = "repro/internal/xmldb"

const (
	commitPoint = "Batch" // the one function that bumps and builds Tx values
	txType      = "Tx"
	touch       = "touch" // the Tx method that marks the batch dirty
)

// trackedFields are the struct fields whose mutation must be covered by
// a version bump.
var trackedFields = map[string]bool{
	"collections": true,
	"records":     true,
	"order":       true,
}

// spatialMutators are the mutating methods of the spatial index field;
// its query methods are reads.
var spatialMutators = map[string]bool{
	"Insert": true,
	"Delete": true,
}

// versionWriters are the atomic methods that change the counter.
var versionWriters = map[string]bool{
	"Add":            true,
	"Store":          true,
	"Swap":           true,
	"CompareAndSwap": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "versionbump",
	Doc: "xmldb state changes only through Tx writes that Batch commits with one version bump\n\n" +
		"The version counter is the read path's only invalidation signal;\n" +
		"a mutation outside the Tx/Batch shape could escape the write lock\n" +
		"without bumping it and make cached answers permanently stale.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Path != checked {
		return nil, nil
	}
	inspect.Of(pass).Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		if d := n.(*ast.FuncDecl); d.Body != nil {
			checkFunc(pass, d)
		}
	})
	return nil, nil
}

// checkFunc applies the four rules to one function, its literals
// included: a closure runs on behalf of the function that wrote it.
func checkFunc(pass *analysis.Pass, d *ast.FuncDecl) {
	isBatch := receiverName(pass, d) == "DB" && d.Name.Name == commitPoint
	isTx := receiverName(pass, d) == txType
	touched := token.NoPos
	ast.Inspect(d.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if _, name, ok := analysis.NamedType(pass.TypesInfo.TypeOf(n)); ok && name == txType && !isBatch {
				pass.Reportf(n.Pos(), "xmldb.Tx built outside %s — a Tx must run under the commit point's lock", commitPoint)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin && tracked(pass, n.Args[0]) {
					mutation(pass, n, isTx, touched)
				}
				break
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				break
			}
			switch {
			case versionWriters[sel.Sel.Name] && fieldNamed(pass, sel.X, "version"):
				if !isBatch {
					pass.Reportf(n.Pos(), "version written outside %s — %s is the database's one commit point", commitPoint, commitPoint)
				}
			case sel.Sel.Name == touch && isTx && touched == token.NoPos:
				touched = n.Pos()
			case spatialMutators[sel.Sel.Name] && fieldNamed(pass, sel.X, "spatial"):
				mutation(pass, n, isTx, touched)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if tracked(pass, lhs) {
					mutation(pass, lhs, isTx, touched)
				}
			}
		case *ast.IncDecStmt:
			if tracked(pass, n.X) {
				mutation(pass, n.X, isTx, touched)
			}
		}
		return true
	})
}

// mutation reports a tracked mutation outside a Tx method, or inside one
// before the method marked the batch dirty.
func mutation(pass *analysis.Pass, n ast.Node, isTx bool, touched token.Pos) {
	switch {
	case !isTx:
		pass.Reportf(n.Pos(), "store state mutated outside a Tx method — writes go through %s", commitPoint)
	case touched == token.NoPos || touched > n.Pos():
		pass.Reportf(n.Pos(), "Tx write mutates store state before tx.%s() marks the batch dirty", touch)
	}
}

// receiverName returns the name of a method's receiver type, "" for a
// plain function.
func receiverName(pass *analysis.Pass, d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	_, name, _ := analysis.NamedType(pass.TypesInfo.TypeOf(d.Recv.List[0].Type))
	return name
}

// tracked resolves expr (through index/star/parens) to a tracked field
// selection of a checked-package type.
func tracked(pass *analysis.Pass, expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			return trackedFields[e.Sel.Name] && fieldNamed(pass, e, e.Sel.Name)
		default:
			return false
		}
	}
}

// fieldNamed reports whether expr selects the named struct field of a
// checked-package type.
func fieldNamed(pass *analysis.Pass, expr ast.Expr, name string) bool {
	e, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	sel, ok := pass.TypesInfo.Selections[e]
	if !ok || sel.Kind() != types.FieldVal || sel.Obj().Name() != name {
		return false
	}
	pkgPath, _, ok := analysis.NamedType(sel.Recv())
	return ok && pkgPath == checked
}
