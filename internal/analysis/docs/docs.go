// Package docs implements the repo's documentation lint: every exported
// top-level identifier in the internal/* packages must carry a doc
// comment (with DeepDocPackages additionally checked down to exported
// struct fields and interface methods), every intra-repository link in
// the *.md files must resolve, and every internal/* package must be
// imported by some non-test file outside it.  It backs both
// cmd/docscheck (the standalone driver) and cmd/psilint, which folds
// these checks into the same exit-code contract as the protocol-safety
// analyzers so `make check` surfaces doc and lint findings in one pass.
//
// Every violation is reported, each addressed as "file:line: message";
// a file that fails to parse is itself reported as a violation at its
// position rather than aborting the walk, so one broken file cannot
// hide the findings in the rest of the tree.
package docs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"minshare/internal/analysis"
)

// CheckAll runs the documentation checks and the orphan-package rule
// under root and returns every violation.  The error return is reserved
// for environmental failures (an unreadable tree); per-file problems are
// violations, not errors.
func CheckAll(root string) ([]string, error) {
	problems, err := CheckGoDocs(filepath.Join(root, "internal"))
	if err != nil {
		return nil, err
	}
	more, err := CheckMarkdownLinks(root)
	if err != nil {
		return nil, err
	}
	orphans, err := checkOrphans(root)
	if err != nil {
		return nil, err
	}
	return append(append(problems, more...), orphans...), nil
}

// orphanExempt names the internal/ packages allowed to have no non-test
// importer.  simulate holds the executable Statement 2/4/6 simulators
// of the paper's proofs: they are driven only by tests, by design, and
// the per-mode simulators still to come build on them.
var orphanExempt = map[string]bool{"simulate": true}

// checkOrphans reports every directory under root/internal that holds
// non-test Go files but is imported by no non-test Go file outside
// itself (testdata and hidden directories are neither packages nor
// importers).  A package nothing but its own tests reaches is code the
// system does not need.
func checkOrphans(root string) ([]string, error) {
	mod, err := analysis.NewLoader().AddModuleFromGoMod(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgFile := map[string]string{} // internal package dir → its first file
	imported := map[string]bool{}  // import paths with a non-test importer outside them
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		dir = filepath.ToSlash(dir)
		if _, ok := pkgFile[dir]; !ok && strings.HasPrefix(dir, "internal/") {
			pkgFile[dir] = path
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if perr != nil {
			return nil // a syntax error is CheckGoDocs' or the compiler's finding
		}
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip != mod+"/"+dir {
				imported[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var problems []string
	for dir, file := range pkgFile {
		if !imported[mod+"/"+dir] && !orphanExempt[strings.TrimPrefix(dir, "internal/")] {
			problems = append(problems, fmt.Sprintf("%s:1: package %s has no non-test importer outside itself", file, dir))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// DeepDocPackages names the packages (directories under internal/)
// held to the deeper standard: beyond top-level declarations, exported
// struct fields and interface methods of exported types must carry doc
// comments too.  These are the packages whose types cross the
// wire-format and group-abstraction boundaries, where an undocumented
// field is a protocol detail lost.
var DeepDocPackages = map[string]bool{
	"group":     true,
	"ec25519":   true,
	"transport": true,
}

// CheckGoDocs walks every non-test Go file under dir (skipping testdata
// and hidden directories) and reports exported top-level declarations
// without a doc comment.  Grouped declarations (var/const blocks) are
// satisfied by a comment on either the group or the individual spec,
// matching godoc's own resolution.  Files that fail to parse are
// reported as violations and the walk continues.  Packages named in
// DeepDocPackages are additionally checked field-by-field.
func CheckGoDocs(dir string) ([]string, error) {
	var problems []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				if path != dir {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			problems = append(problems, parseProblems(path, perr)...)
			return nil
		}
		deep := DeepDocPackages[filepath.Base(filepath.Dir(path))]
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				// Methods count too: an exported method on an exported
				// type is API surface.
				if d.Name.IsExported() && d.Doc == nil && exportedReceiver(d) {
					problems = append(problems, undocumented(fset, d.Pos(), d.Name.Name))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
							problems = append(problems, undocumented(fset, sp.Pos(), sp.Name.Name))
						}
						if deep && sp.Name.IsExported() {
							problems = append(problems, deepTypeProblems(fset, sp)...)
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() && d.Doc == nil && sp.Doc == nil {
								problems = append(problems, undocumented(fset, name.Pos(), name.Name))
							}
						}
					}
				}
			}
		}
		return nil
	})
	return problems, err
}

// deepTypeProblems applies the field-level standard to one exported
// type: every exported struct field and every exported interface method
// needs a doc comment (a leading doc or a trailing line comment both
// satisfy godoc).  Embedded fields and embedded interfaces are skipped —
// their documentation lives with the embedded type.
func deepTypeProblems(fset *token.FileSet, sp *ast.TypeSpec) []string {
	var problems []string
	report := func(f *ast.Field, name string, kind string) {
		if f.Doc == nil && f.Comment == nil {
			p := fset.Position(f.Pos())
			problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s.%s has no doc comment", p.Filename, p.Line, kind, sp.Name.Name, name))
		}
	}
	switch t := sp.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			for _, name := range f.Names {
				if name.IsExported() {
					report(f, name.Name, "field")
				}
			}
		}
	case *ast.InterfaceType:
		for _, f := range t.Methods.List {
			// Methods have names; embedded interfaces do not.
			for _, name := range f.Names {
				if name.IsExported() {
					report(f, name.Name, "method")
				}
			}
		}
	}
	return problems
}

// parseProblems renders a parse failure as one violation per syntax
// error, each with its own file:line, so a single broken file reports
// everything it can instead of stopping the run.
func parseProblems(path string, err error) []string {
	if list, ok := err.(scanner.ErrorList); ok {
		out := make([]string, 0, len(list))
		for _, e := range list {
			out = append(out, fmt.Sprintf("%s:%d: syntax error: %s", e.Pos.Filename, e.Pos.Line, e.Msg))
		}
		return out
	}
	return []string{fmt.Sprintf("%s:1: parse error: %v", path, err)}
}

// exportedReceiver reports whether fn is a plain function or a method
// whose receiver type is itself exported — methods on unexported types
// are not godoc surface.
func exportedReceiver(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

func undocumented(fset *token.FileSet, pos token.Pos, name string) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d: exported %s has no doc comment", p.Filename, p.Line, name)
}

// CheckMarkdownLinks resolves every [text](target) in the repo's
// markdown files.  External schemes, pure fragments and mailto links
// are skipped; everything else must name an existing file or directory
// relative to the markdown file (a #fragment suffix is stripped first).
func CheckMarkdownLinks(root string) ([]string, error) {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, lk := range markdownLinks(string(data)) {
			target := lk.target
			if skipLink(target) {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", path, lk.line, target))
			}
		}
		return nil
	})
	return problems, err
}

// skipLink reports whether target points outside the repository.
func skipLink(target string) bool {
	if strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
		return true
	}
	if u, err := url.Parse(target); err == nil && u.Scheme != "" {
		return true
	}
	return false
}

// link is one inline markdown link occurrence.
type link struct {
	line   int
	target string
}

// markdownLinks extracts every inline markdown link, skipping fenced
// code blocks and inline code spans so shell examples like
// `tbl[attr](x)` are not misread as links.
func markdownLinks(text string) []link {
	var links []link
	inFence := false
	for lineNo, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		line = stripCodeSpans(line)
		for i := 0; i < len(line); i++ {
			if line[i] != ']' || i+1 >= len(line) || line[i+1] != '(' {
				continue
			}
			end := strings.IndexByte(line[i+2:], ')')
			if end < 0 {
				continue
			}
			target := line[i+2 : i+2+end]
			// Titles: [t](file.md "title")
			if j := strings.IndexByte(target, ' '); j >= 0 {
				target = target[:j]
			}
			if target != "" {
				links = append(links, link{line: lineNo + 1, target: target})
			}
			i += 2 + end
		}
	}
	return links
}

// stripCodeSpans blanks out `...` spans within one line.
func stripCodeSpans(line string) string {
	out := []byte(line)
	in := false
	for i := range out {
		if out[i] == '`' {
			in = !in
			out[i] = ' '
			continue
		}
		if in {
			out[i] = ' '
		}
	}
	return string(out)
}
