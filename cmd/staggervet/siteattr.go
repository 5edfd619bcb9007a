package main

import (
	"go/ast"
	"go/constant"
)

// siteattr enforces site attribution on simulated memory accesses: every
// transactional load and store must name the static site it implements,
// or the anchor tables and the conflicting-PC mechanism go blind.
//
//   - (*stagger.TxCtx).Load/Store with a nil site panics at runtime in
//     the best case and silently skips ALPoints in the worst; it is
//     flagged everywhere.
//   - (*htm.Core).Load/Store with the literal site ID 0 is an
//     unattributed access; outside internal/htm (whose global-lock
//     fallback legitimately reads runtime-owned words) every caller
//     must pass a real site, normally by going through TxCtx.
var siteattrAnalyzer = &Analyzer{
	Name: "siteattr",
	Doc:  "requires simulated transactional accesses to carry a static site attribution",
	Run:  runSiteAttr,
}

func runSiteAttr(pass *Pass) {
	inHTM := pkgRel(pass.PkgPath) == "internal/htm"
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "Load" && name != "Store" {
				return true
			}
			switch {
			case methodOn(pass, sel, "internal/stagger", "TxCtx") != nil:
				if len(call.Args) >= 1 && isNil(pass, call.Args[0]) {
					pass.Reportf(call.Pos(),
						"TxCtx.%s with a nil site: the access cannot be attributed to the anchor tables", name)
				}
			case !inHTM && methodOn(pass, sel, "internal/htm", "Core") != nil:
				if len(call.Args) >= 2 && isZero(pass, call.Args[1]) {
					pass.Reportf(call.Pos(),
						"Core.%s with site 0 bypasses site attribution; go through TxCtx or pass the real site ID", name)
				}
			}
			return true
		})
	}
}

func isNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.IsNil()
}

func isZero(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := constant.Uint64Val(tv.Value)
	return exact && v == 0
}
