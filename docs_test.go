package otisnet

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsBenchmarkNamesExist fails when README.md or DESIGN.md references
// a benchmark that no longer exists in the tree, so the docs cannot drift
// from bench_test.go (the CI docs job runs this explicitly).
func TestDocsBenchmarkNamesExist(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`func (Benchmark[A-Za-z0-9_]+)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("no benchmarks found in the tree")
	}
	// Uppercase after the prefix skips prose words like "Benchmarks".
	ref := regexp.MustCompile(`Benchmark[A-Z][A-Za-z0-9_]*`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, name := range ref.FindAllString(string(src), -1) {
			// Docs may reference a shared prefix ("BenchmarkT7 matches
			// BenchmarkT7SimThroughput") the way `go test -bench` does.
			ok := false
			for full := range defined {
				if strings.HasPrefix(full, name) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s references %s, which no longer exists", doc, name)
			}
		}
	}
}

// TestDocsTestNamesExist applies the same drift guard to the Test and
// Fuzz functions the docs cite as evidence for equivalence claims.
func TestDocsTestNamesExist(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`func ((?:Test|Fuzz)[A-Za-z0-9_]+)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`(?:Test|Fuzz)[A-Z][A-Za-z0-9_]*`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, name := range ref.FindAllString(string(src), -1) {
			ok := false
			for full := range defined {
				if strings.HasPrefix(full, name) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s references %s, which no longer exists", doc, name)
			}
		}
	}
}

// TestDocsFlagsExist applies the same drift guard to flags. Every
// "| `-flag` |" row of README's flag tables must name a flag some command
// under cmd/ still defines (flag.Int("name", ...), fs.String("name",
// ...)), and every -flag on a `go run ./cmd/netsim` command line in the
// docs and in netsim's package comment must name a flag netsim defines.
func TestDocsFlagsExist(t *testing.T) {
	decl := regexp.MustCompile(`\b(?:flag|fs)\.[A-Z][A-Za-z0-9]*\("([A-Za-z0-9_-]+)"`)
	defined := map[string]bool{}       // any command under cmd/
	netsimDefined := map[string]bool{} // cmd/netsim alone
	files, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
			if filepath.Dir(f) == filepath.Join("cmd", "netsim") {
				netsimDefined[m[1]] = true
			}
		}
	}
	if len(defined) == 0 || len(netsimDefined) == 0 {
		t.Fatal("no flags found under cmd/")
	}
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `-([A-Za-z0-9_-]+)` \\|")
	rows := row.FindAllStringSubmatch(string(src), -1)
	if len(rows) == 0 {
		t.Fatal("README.md has no flag table rows")
	}
	for _, m := range rows {
		if !defined[m[1]] {
			t.Errorf("README.md documents -%s, which no command defines", m[1])
		}
	}

	// Command lines: join backslash continuations, take the text after
	// the netsim invocation up to any shell operator or comment, and check
	// each -flag token in it.
	const invocation = "go run ./cmd/netsim"
	flagTok := regexp.MustCompile(`(?:^|\s)-([A-Za-z][A-Za-z0-9_-]*)`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md"), filepath.Join("cmd", "netsim", "main.go")} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		text := regexp.MustCompile(`\\\n\s*(?://\s*)?`).ReplaceAllString(string(src), " ")
		for _, line := range strings.Split(text, "\n") {
			i := strings.Index(line, invocation)
			if i < 0 {
				continue
			}
			args := line[i+len(invocation):]
			if j := strings.IndexAny(args, "|>&;#"); j >= 0 {
				args = args[:j]
			}
			for _, m := range flagTok.FindAllStringSubmatch(args, -1) {
				checked++
				if !netsimDefined[m[1]] {
					t.Errorf("%s runs netsim with -%s, which netsim does not define: %s", doc, m[1], strings.TrimSpace(line))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no netsim command lines found in the docs")
	}
}

// TestInternalPackagesHaveDocComments keeps every internal package
// documented: some file of each package must carry a line-start
// "// Package <name> " doc comment — the exact invariant the CI docs job
// greps for (`^// Package $pkg `), so the two checks cannot disagree.
func TestInternalPackagesHaveDocComments(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg := d.Name()
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		docLine := regexp.MustCompile(`(?m)^// Package ` + regexp.QuoteMeta(pkg) + ` `)
		found := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if docLine.Match(src) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("internal/%s has no package doc comment", pkg)
		}
	}
}
