// Package lint is the static-analysis layer enforcing this repository's
// reproducibility invariants: deterministic iteration and accumulation
// order (serial≡parallel and byte-identity guarantees), no ambient
// nondeterminism in analysis packages, allocation-free annotated hot
// paths, and the frozen mirapack layouts.
//
// The package provides a small go/analysis-style framework — Analyzer,
// Pass, Diagnostic — built entirely on the standard library (go/ast,
// go/types, go/importer): the golang.org/x/tools module is not a
// dependency of this repository, so the loader in load.go resolves
// imports from compiler export data produced by `go list -export`
// instead of x/tools' packages loader. Analyzer Run functions receive
// the same material a go/analysis pass would (file set, syntax, type
// info) and report position-tagged diagnostics.
//
// Diagnostics are suppressed by an explicit, reviewable comment:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory; a bare //lint:ignore is itself reported. The
// analyzers and their conventions are documented in DESIGN.md §12.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore comments. It is a single lowercase word.
	Name string
	// Doc is the one-paragraph description shown by `miralint -list`.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// A Pass is the interface between one analyzer and one package being
// analyzed. It mirrors the go/analysis Pass surface this repository
// needs.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path ("" for ad-hoc test packages).
	Path string

	diags *[]Diagnostic
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the `go vet` file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (use or def).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// Run executes every analyzer over the package and returns the
// surviving diagnostics: suppressed ones are dropped, the rest are
// sorted by position. Malformed suppression comments (no reason, or
// naming no analyzer) are themselves reported.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Path:      pkg.Path,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s over %s: %w", a.Name, pkg.Path, err)
		}
	}
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.covers(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, sup.malformed...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}

// suppressions indexes //lint:ignore comments by file and line.
type suppressions struct {
	// byLine maps file → line of the ignore comment → analyzer names.
	byLine    map[string]map[int][]string
	malformed []Diagnostic
}

const ignorePrefix = "//lint:ignore"

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore: want `//lint:ignore <analyzer>[,<analyzer>] <reason>` with a non-empty reason",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				m := s.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					s.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], names...)
			}
		}
	}
	return s
}

// covers reports whether an ignore comment on the diagnostic's line or
// the line directly above names the diagnostic's analyzer.
func (s *suppressions) covers(d Diagnostic) bool {
	m := s.byLine[d.File]
	if m == nil {
		return false
	}
	for _, line := range []int{d.Line, d.Line - 1} {
		for _, name := range m[line] {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// parentMap records the enclosing node of every node in a file. It is
// the substitute for x/tools' inspector.WithStack used by analyzers
// that need the syntactic context of a match.
type parentMap map[ast.Node]ast.Node

func buildParents(files []*ast.File) parentMap {
	pm := make(parentMap)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				pm[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return pm
}

// isTestFile reports whether the file's position belongs to a _test.go
// file. The loader only feeds non-test sources to the analyzers, but
// the test harness may not, and several analyzers exempt test code.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
