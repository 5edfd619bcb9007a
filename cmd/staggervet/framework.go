package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The staggervet mini-framework. golang.org/x/tools is not vendored, so
// this is a stdlib-only reimplementation of the slice of analysis.Pass
// the analyzers need: typed ASTs in, position-tagged diagnostics out.

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string // diagnostic tag
	Doc  string
	Run  func(*Pass)
}

// Pass hands one package's typed syntax to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, printed as file:line:col: [name] msg.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Msg)
}

// runAnalyzers applies every analyzer to one loaded package and returns
// its diagnostics sorted by position.
func runAnalyzers(analyzers []*Analyzer, p *pkgInfo) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     p.fset,
			Files:    p.files,
			PkgPath:  p.path,
			Info:     p.info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// pkgRel strips the module prefix from an import path so scope tables
// can name packages module-independently ("internal/store").
func pkgRel(path string) string {
	for _, marker := range []string{"internal/", "cmd/"} {
		if strings.HasPrefix(path, marker) {
			return path
		}
		if i := strings.Index(path, "/"+marker); i >= 0 {
			return path[i+1:]
		}
	}
	return path
}

// methodOn resolves sel as a method of the named type pkgRel.typeName
// (value or pointer receiver) and returns the method object, else nil.
func methodOn(pass *Pass, sel *ast.SelectorExpr, pkg, typeName string) types.Object {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal && s.Kind() != types.MethodExpr {
		return nil
	}
	obj := s.Obj()
	if obj.Pkg() == nil || pkgRel(obj.Pkg().Path()) != pkg {
		return nil
	}
	recv := s.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != typeName {
		return nil
	}
	return obj
}
