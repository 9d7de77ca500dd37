// Command docs-lint is the repository's documentation gate, run by CI.
// It has two checks and no dependencies outside the standard library:
//
//   - Markdown link check (-md): every relative link or image target in
//     the given markdown files/directories must exist on disk (query
//     strings are stripped; http(s) and mailto links are skipped), and
//     every #fragment — whether a pure intra-document "#section" link or
//     the fragment of a "file.md#section" link — must name a heading
//     anchor that actually exists in the target document, per GitHub's
//     heading-slug rules. Dead relative links and dead anchors are
//     exactly the rot a format-spec document like docs/FORMATS.md
//     accumulates when files move or sections are renamed.
//
//   - Godoc check (-godoc): the named packages (Go import patterns
//     resolved via `go list`-free directory walking of the given dirs)
//     must have a package comment, and every exported top-level
//     identifier must carry a doc comment. This is the `revive`-style
//     exported-ident rule, enforced without pulling in a linter
//     dependency.
//
// Usage:
//
//	docs-lint -md README.md -md docs -md ROADMAP.md
//	docs-lint -godoc internal/cluster -godoc internal/train
//
// Exit status 0 when clean, 1 with findings (one per line), 2 on usage
// errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

// Set appends one occurrence of the flag.
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var md, godoc multiFlag
	flag.Var(&md, "md", "markdown file or directory to link-check (repeatable)")
	flag.Var(&godoc, "godoc", "package directory to doc-comment-check (repeatable)")
	flag.Parse()
	if len(md) == 0 && len(godoc) == 0 {
		fmt.Fprintln(os.Stderr, "docs-lint: nothing to do (pass -md and/or -godoc)")
		flag.Usage()
		os.Exit(2)
	}
	var findings []string
	for _, root := range md {
		fs, err := checkMarkdown(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docs-lint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, dir := range godoc {
		fs, err := checkGodoc(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docs-lint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docs-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// linkRE matches inline markdown links/images [text](target) — enough
// for this repository's documents; reference-style links are not used.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdown link-checks one file, or every *.md under a directory.
func checkMarkdown(root string) ([]string, error) {
	st, err := os.Stat(root)
	if err != nil {
		return nil, err
	}
	var files []string
	if st.IsDir() {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		files = []string{root}
	}
	var findings []string
	anchors := anchorCache{}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if target == "" ||
					strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				// Split off the fragment; it is checked against the target
				// document's headings once the file itself resolves.
				var frag string
				if j := strings.IndexByte(target, '#'); j >= 0 {
					target, frag = target[:j], target[j+1:]
				}
				if j := strings.IndexByte(target, '?'); j >= 0 {
					target = target[:j]
				}
				if target == "" {
					// Pure intra-document link: the anchor must exist in the
					// file that contains it.
					if frag != "" && !anchors.has(file, frag) {
						findings = append(findings, fmt.Sprintf("%s:%d: dead anchor %q (no such heading in this file)", file, i+1, m[1]))
					}
					continue
				}
				var resolved string
				switch {
				case strings.HasPrefix(target, "/"):
					// Root-relative, the way GitHub renders it: against the
					// repository root (the lint's working directory), never
					// the machine's filesystem root.
					resolved = filepath.Join(".", target)
				default:
					resolved = filepath.Join(filepath.Dir(file), target)
				}
				// Targets that climb out of the repository (e.g. GitHub's
				// ../../actions/... badge paths) are web-UI routes, not
				// files this checker can know about.
				if rel, err := filepath.Rel(".", resolved); err == nil && (rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator))) {
					continue
				}
				if _, err := os.Stat(resolved); err != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: dead relative link %q", file, i+1, m[1]))
					continue
				}
				if frag != "" && strings.HasSuffix(resolved, ".md") && !anchors.has(resolved, frag) {
					findings = append(findings, fmt.Sprintf("%s:%d: dead anchor %q (no such heading in %s)", file, i+1, m[1], resolved))
				}
			}
		}
	}
	return findings, nil
}

// anchorCache lazily extracts and memoizes the heading anchors of each
// markdown file consulted during a lint run.
type anchorCache map[string]map[string]bool

// has reports whether the markdown file at path defines the anchor. An
// unreadable file yields no anchors (its dead-link finding already
// covers it).
func (c anchorCache) has(path, anchor string) bool {
	set, ok := c[path]
	if !ok {
		set = map[string]bool{}
		if raw, err := os.ReadFile(path); err == nil {
			for _, slug := range headingAnchors(string(raw)) {
				set[slug] = true
			}
		}
		c[path] = set
	}
	return set[anchor]
}

// headingRE matches an ATX heading line; the repo's documents use no
// setext headings.
var headingRE = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)

// headingAnchors returns the GitHub anchor slug of every heading in the
// document, in order. Headings inside fenced code blocks are not
// headings (a `# comment` in a shell snippet must not mint an anchor).
func headingAnchors(doc string) []string {
	var slugs []string
	taken := map[string]int{}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimLeft(line, " \t")
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		slug := anchorSlug(m[1])
		// GitHub de-duplicates repeated headings with a -1, -2, ... suffix.
		if n, dup := taken[slug]; dup {
			taken[slug] = n + 1
			slug = fmt.Sprintf("%s-%d", slug, n)
		} else {
			taken[slug] = 1
		}
		slugs = append(slugs, slug)
	}
	return slugs
}

// inlineLinkTextRE rewrites [text](target) to just text, the way GitHub
// slugs headings that contain links.
var inlineLinkTextRE = regexp.MustCompile(`\[([^\]]*)\]\([^)]*\)`)

// anchorSlug implements GitHub's heading-to-anchor algorithm: drop
// inline-link targets, lowercase, remove every rune that is not a
// letter, digit, space, hyphen or underscore, then turn spaces into
// hyphens. Backticks and other punctuation simply vanish, so
// "## Reading `LOAD_<sha>.json`" slugs to "reading-load_shajson".
func anchorSlug(heading string) string {
	heading = inlineLinkTextRE.ReplaceAllString(heading, "$1")
	heading = strings.ToLower(heading)
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// checkGodoc parses every non-test Go file in dir (one package) and
// reports a missing package comment and exported top-level identifiers
// without doc comments.
func checkGodoc(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		for name, f := range pkg.Files {
			for _, decl := range f.Decls {
				findings = append(findings, checkDecl(fset, name, decl)...)
			}
		}
	}
	return findings, nil
}

// checkDecl reports exported names declared by decl that lack a doc
// comment. Grouped var/const/type specs inherit the group's comment:
// one comment on the block satisfies every exported name inside it,
// matching how godoc renders them.
func checkDecl(fset *token.FileSet, file string, decl ast.Decl) []string {
	pos := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return fmt.Sprintf("%s:%d", file, p.Line)
	}
	var findings []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil && !unexportedRecv(d) {
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			findings = append(findings, fmt.Sprintf("%s: exported %s %s has no doc comment", pos(d), kind, d.Name.Name))
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					findings = append(findings, fmt.Sprintf("%s: exported type %s has no doc comment", pos(s), s.Name.Name))
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						findings = append(findings, fmt.Sprintf("%s: exported %s has no doc comment", pos(n), n.Name))
					}
				}
			}
		}
	}
	return findings
}

// unexportedRecv reports whether decl is a method on an unexported
// receiver type — godoc never renders those, so an exported method name
// there (a Write satisfying io.Writer, say) needs no doc comment.
func unexportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && !id.IsExported()
}
