// Command nowa-vet runs the repository's domain-specific static
// analyzers (internal/analysis) over the module: atomicmix, hotpath,
// padguard, joinenc, lockorder and fsm. It exits non-zero
// when any invariant is violated, so `make verify` and CI treat findings
// like compile errors.
//
// Usage:
//
//	nowa-vet [-list] [-only name,name] [-json] [packages]
//
// Packages default to ./... . The patterns are handed to `go list
// -deps`, so they pick the roots; every module package in their import
// closure is loaded, type-checked in one universe and analyzed — the
// analyzers reason about cross-package facts (hot-path callees, atomic
// access sites, lock hierarchies) and need the whole picture. Run with
// ./... in practice; narrower patterns analyze partial closures.
//
// -only selects a comma-separated subset of analyzers by name; empty
// segments (a trailing comma) are ignored, an unknown name or a
// selection that resolves to no analyzers at all is a usage error — a
// vet run that silently checks nothing must not pass.
//
// -json replaces the human format with one JSON object per finding
// (analyzer, file, line, col, message), one per line, followed by a
// summary object ({"findings": N, "analyzers": M}) — line-delimited
// JSON for CI annotation tooling. `make lint` keeps the human format.
//
// Exit codes:
//
//	0  no findings
//	1  one or more findings
//	2  usage error or package load/type-check failure
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"nowa/internal/analysis"
)

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonSummary terminates the -json stream.
type jsonSummary struct {
	Findings  int `json:"findings"`
	Analyzers int `json:"analyzers"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	asJSON := flag.Bool("json", false, "emit findings as line-delimited JSON with a trailing summary object")
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}
	available := func() string {
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		return strings.Join(names, ", ")
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				keep[name] = true
			}
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "nowa-vet: unknown analyzer %q (available: %s)\n", name, available())
			os.Exit(2)
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "nowa-vet: -only %q selects no analyzers (available: %s)\n", *only, available())
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	m, err := analysis.LoadModule(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nowa-vet: %v\n", err)
		os.Exit(2)
	}

	findings := analysis.RunAll(m, analyzers)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, f := range findings {
			enc.Encode(jsonFinding{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc.Encode(jsonSummary{Findings: len(findings), Analyzers: len(analyzers)})
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) == 0 {
		return
	}
	if !*asJSON {
		fmt.Fprintf(os.Stderr, "nowa-vet: %d finding(s)\n", len(findings))
	}
	os.Exit(1)
}
