package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMarkdown(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "docs", "FORMATS.md"), strings.Join([]string{
		"## Layout",
		"see [arch](ARCHITECTURE.md) and [readme](../README.md)",
	}, "\n"))
	write(t, filepath.Join(dir, "docs", "ARCHITECTURE.md"), "ok\n")
	write(t, filepath.Join(dir, "README.md"), strings.Join([]string{
		"# Section",
		"[good](docs/FORMATS.md)",
		"[anchor](docs/FORMATS.md#layout)",
		"[web](https://example.com/x.md)",
		"[frag](#section)",
		"![badge](../../actions/workflows/ci.yml/badge.svg)", // escapes the repo: skipped
		"[rooted](/docs/ARCHITECTURE.md)",                    // root-relative: repo root, not filesystem root
		"[dead](docs/NOPE.md)",
		"[deadfrag](#no-such-section)",
		"[deadanchor](docs/FORMATS.md#no-such-heading)",
		"[deadboth](docs/NOPE.md#layout)", // one finding: the file, not the anchor
	}, "\n"))

	// The checker resolves repo-escape relative to the process CWD.
	old, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	findings, err := checkMarkdown(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 4 {
		t.Fatalf("findings = %q, want NOPE.md ×2 + the two dead anchors", findings)
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{"NOPE.md", "#no-such-section", "#no-such-heading"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("findings %q do not mention %s", findings, want)
		}
	}
	if strings.Count(joined, "dead anchor") != 2 {
		t.Fatalf("findings %q: want exactly 2 dead anchors", findings)
	}
}

func TestHeadingAnchors(t *testing.T) {
	doc := strings.Join([]string{
		"# WarpLDA in Go",
		"## Reading `LOAD_<sha>.json`",
		"## Setup",
		"## Setup", // duplicate: GitHub appends -1
		"### A link [inside](x.md) a heading",
		"```sh",
		"# not a heading, a shell comment",
		"```",
		"#NotAHeading (no space after the hashes)",
		"## Trailing hashes ##",
	}, "\n")
	got := headingAnchors(doc)
	want := []string{
		"warplda-in-go",
		"reading-load_shajson",
		"setup",
		"setup-1",
		"a-link-inside-a-heading",
		"trailing-hashes",
	}
	if len(got) != len(want) {
		t.Fatalf("anchors = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("anchor %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAnchorSlug(t *testing.T) {
	cases := map[string]string{
		"Choosing -threads":          "choosing--threads",
		"Per-thread delta buffers":   "per-thread-delta-buffers",
		"What's in a name?":          "whats-in-a-name",
		"snake_case stays":           "snake_case-stays",
		"Mixed CASE  and+symbols/ok": "mixed-case--andsymbolsok",
	}
	for in, want := range cases {
		if got := anchorSlug(in); got != want {
			t.Errorf("anchorSlug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckGodoc(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.go"), `// Package demo is documented.
package demo

// Documented is fine.
const Documented = 1

// Exported is fine.
func Exported() {}

func Undocumented() {}

type hidden struct{}

func (hidden) Write() {}

type Missing struct{}
`)
	findings, err := checkGodoc(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f)
	}
	if len(got) != 2 {
		t.Fatalf("findings = %q, want Undocumented + Missing", got)
	}
	if !strings.Contains(got[0], "Undocumented") && !strings.Contains(got[1], "Undocumented") {
		t.Fatalf("Undocumented not flagged: %q", got)
	}
	if !strings.Contains(got[0], "Missing") && !strings.Contains(got[1], "Missing") {
		t.Fatalf("type Missing not flagged: %q", got)
	}

	nodoc := t.TempDir()
	write(t, filepath.Join(nodoc, "b.go"), "package nodoc\n")
	findings, err = checkGodoc(nodoc)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "package comment") {
		t.Fatalf("findings = %q, want the missing package comment", findings)
	}
}
