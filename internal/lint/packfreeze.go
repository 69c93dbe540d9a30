package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PackFreeze mechanizes the DESIGN §10 format-freeze rule: the
// declarations that define a serialized layout are annotated
// `//mira:frozen`, and the analyzer hashes their printed form. The
// hash must match the package's declared layout-hash constant, and —
// for layouts this analyzer pins, like mirapack versions 1 to 4 — the
// recorded hash for the declared version. Changing any frozen
// declaration therefore fails the build until the version constant is
// bumped and the new hash recorded, making silent format drift
// impossible.
//
// Contract per package containing //mira:frozen declarations:
//
//   - an integer constant named Version or FormatVersion;
//   - a string constant named LayoutHash or FrozenLayoutHash holding
//     "sha256:<64 hex digits>" over the frozen declarations;
//   - the hash constant itself must not be inside a frozen declaration
//     (updating it would re-change the hash it records).
//
// The hash covers the printed syntax of each frozen declaration (doc
// comments excluded), concatenated in file-name-then-position order.
// A mismatch diagnostic carries the computed hash, so recording a new
// layout after a version bump is copy-paste.
var PackFreeze = &Analyzer{
	Name: "packfreeze",
	Doc: "verifies //mira:frozen layout declarations hash to the declared layout-hash " +
		"constant and that pinned frozen versions (mirapack v1 to v4) are never edited without a version bump",
	Run: runPackFreeze,
}

const frozenDirective = "//mira:frozen"

// frozenPins records, per package import path, the layout hash of every
// version whose freeze is final. Editing a frozen declaration in one of
// these packages without bumping the version constant is an error even
// if the in-package hash constant is updated to match.
var frozenPins = map[string]map[int64]string{
	"repro/internal/pack": {
		1: "aaf2950ff3e793569a519303e354cd93f506af29985381b624f8450147884191",
		2: "44174ced630cb2e20f83c288fc386c34669e0879c8a4d1ff2a2bbc2f4de82fd7",
		3: "86ca266f2de5439ec147faeded20f0eb1e838623ef9566a9307bdba172e18933",
		4: "eb9b01354aff091880a96e38ea4ec14e2a134473c2980ec3a7a3279d581ff302",
	},
}

func runPackFreeze(pass *Pass) error {
	type frozenDecl struct {
		file string
		pos  token.Pos
		node ast.Decl
	}
	var frozen []frozenDecl
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		for _, decl := range file.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.GenDecl:
				doc = d.Doc
			case *ast.FuncDecl:
				doc = d.Doc
			}
			if hasDirective(doc, frozenDirective) {
				frozen = append(frozen, frozenDecl{file: name, pos: decl.Pos(), node: decl})
			}
		}
	}
	if len(frozen) == 0 {
		return nil
	}
	sort.Slice(frozen, func(i, j int) bool {
		if frozen[i].file != frozen[j].file {
			return frozen[i].file < frozen[j].file
		}
		return frozen[i].pos < frozen[j].pos
	})

	h := sha256.New()
	for _, fd := range frozen {
		// Print the declaration without its doc comment: prose edits
		// must not break a layout freeze.
		node := fd.node
		switch d := node.(type) {
		case *ast.GenDecl:
			cp := *d
			cp.Doc = nil
			node = &cp
		case *ast.FuncDecl:
			cp := *d
			cp.Doc = nil
			node = &cp
		}
		if err := printer.Fprint(h, pass.Fset, node); err != nil {
			return fmt.Errorf("packfreeze: print frozen decl: %w", err)
		}
		h.Write([]byte{'\n', 0})
	}
	computed := hex.EncodeToString(h.Sum(nil))

	version, versionConst := findIntConst(pass, "Version", "FormatVersion")
	declared, hashConst := findStringConst(pass, "LayoutHash", "FrozenLayoutHash")
	if versionConst == nil || hashConst == nil {
		pass.Reportf(frozen[0].node.Pos(),
			"package %s has //mira:frozen declarations but no %s constant; declare an integer Version/FormatVersion and a string LayoutHash/FrozenLayoutHash (\"sha256:<hex>\")",
			pass.Pkg.Name(), missingFreezeAnchors(versionConst, hashConst))
		return nil
	}
	// The hash constant must live outside the frozen set, or recording a
	// new hash would invalidate itself.
	for _, fd := range frozen {
		if hashConst.Pos() >= fd.node.Pos() && hashConst.Pos() <= fd.node.End() {
			pass.Reportf(hashConst.Pos(), "layout-hash constant %s is itself inside a //mira:frozen declaration; move it out (recording a new hash must not change the hashed layout)", hashConst.Name())
			return nil
		}
	}

	declaredHex := strings.TrimPrefix(declared, "sha256:")
	if declaredHex != computed {
		pass.Reportf(hashConst.Pos(),
			"frozen layout changed: %s records sha256:%s but the //mira:frozen declarations hash to sha256:%s — if the layout change is intentional, bump %s (now %d) and record the new hash",
			hashConst.Name(), declaredHex, computed, versionConst.Name(), version)
		return nil
	}
	if pins, ok := frozenPins[pass.Path]; ok {
		if pinned, ok := pins[version]; ok && pinned != computed {
			pass.Reportf(versionConst.Pos(),
				"%s version %d is frozen (DESIGN §10): its layout declarations no longer hash to the recorded freeze (pinned sha256:%s, computed sha256:%s); bump %s and record the new hash",
				pass.Pkg.Name(), version, pinned, computed, versionConst.Name())
		}
	}
	return nil
}

func missingFreezeAnchors(versionConst, hashConst types.Object) string {
	switch {
	case versionConst == nil && hashConst == nil:
		return "Version or LayoutHash"
	case versionConst == nil:
		return "Version"
	default:
		return "LayoutHash"
	}
}

// findIntConst returns the value and object of the first package-level
// integer constant with one of the given names.
func findIntConst(pass *Pass, names ...string) (int64, types.Object) {
	for _, name := range names {
		if obj, ok := pass.Pkg.Scope().Lookup(name).(*types.Const); ok {
			if v, ok := constant.Int64Val(constant.ToInt(obj.Val())); ok {
				return v, obj
			}
		}
	}
	return 0, nil
}

// findStringConst returns the value and object of the first
// package-level string constant with one of the given names.
func findStringConst(pass *Pass, names ...string) (string, types.Object) {
	for _, name := range names {
		if obj, ok := pass.Pkg.Scope().Lookup(name).(*types.Const); ok {
			if obj.Val().Kind() == constant.String {
				return constant.StringVal(obj.Val()), obj
			}
		}
	}
	return "", nil
}
