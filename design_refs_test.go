package nowa_test

import (
	"bufio"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// designHeading matches a numbered DESIGN.md heading: "## 7. Cancellation"
// or "### 15.1 Stall recovery".
var designHeading = regexp.MustCompile(`^#{2,3} (\d+(?:\.\d+)?)\.? `)

// designCite matches a numbered section reference. The paper's sections
// are roman (§III-C, §V-A), so every numeric one names a DESIGN.md
// heading.
var designCite = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)

// TestDesignCitationsResolve: every DESIGN.md section a Go comment cites
// (§7, §15.1, ...) exists as a numbered heading, so renumbering or
// folding DESIGN.md cannot leave the code pointing at nothing.
func TestDesignCitationsResolve(t *testing.T) {
	f, err := os.Open("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sections := map[string]bool{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if m := designHeading.FindStringSubmatch(sc.Text()); m != nil {
			sections[m[1]] = true
		}
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered headings")
	}

	cites := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok != token.COMMENT {
				continue
			}
			for _, m := range designCite.FindAllStringSubmatchIndex(lit, -1) {
				cites++
				if sec := lit[m[2]:m[3]]; !sections[sec] {
					t.Errorf("%s: cites §%s, which is no DESIGN.md heading", fset.Position(pos+token.Pos(m[0])), sec)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cites == 0 {
		t.Fatal("found no DESIGN.md citation in any Go comment")
	}
}
