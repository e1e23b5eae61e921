package nowa_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// exportedSurface is the root package's public surface, sorted: every
// exported top-level name, and every exported method as Type.Method.
// Adding or removing an export is a change to this list, so it shows up
// in review as a diff of it.
var exportedSurface = []string{
	"Barrier", "Barrier.Generation", "Barrier.Parties", "Barrier.Wait",
	"Channel", "Channel.Cap", "Channel.Close", "Channel.Closed",
	"Channel.Len", "Channel.Recv", "Channel.Send", "Close", "Ctx",
	"ErrClosed", "ErrDrainForced", "ErrNotServing", "ErrOverloaded",
	"ErrPoisoned", "ErrRunTimeout", "ErrServiceClosed", "ErrShed", "For",
	"Future", "Future.Await", "Future.Complete", "Future.Done",
	"Future.Fail", "Future.Poison", "Future.Resolve", "Future.TryGet",
	"HasVesselModel", "Instrument", "Invoke", "IsSorted",
	"Limits", "Map", "New", "NewBarrier", "NewChannel", "NewFuture",
	"NewInstrumented", "NewLimited", "NewResilient",
	"NewScheduleRecorder", "OverloadBlock", "OverloadFailFast",
	"OverloadPolicy", "OverloadShed", "OverloadedError", "Reduce",
	"ResilienceOutcome", "ResiliencePolicy", "Resilient", "ResourceStats",
	"Resources", "RunTimeout", "RunTimeoutCtx", "Runtime",
	"ScheduleRecorder", "Scope",
	"Serial", "ServiceConfig", "ServiceInfo", "ServiceStats", "Sort",
	"SortOrdered", "SpawnAdaptive", "SpawnEager", "SpawnPolicy",
	"StartService", "StrandPanic", "Submission", "Submit", "SubmitCtx",
	"SubmitOpt", "SubmitOpts", "Variant", "Variant.String",
	"VariantCilkPlus", "VariantFibril", "VariantLibGOMP",
	"VariantLibOMPTied", "VariantLibOMPUntied", "VariantNowa",
	"VariantNowaTHE", "VariantTBB", "Variants",
}

// TestExportedSurface parses the root package and compares its exported
// identifiers against exportedSurface.
func TestExportedSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["nowa"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok { // Future[T]
						recv = idx.X
					}
					typ := recv.(*ast.Ident)
					if !typ.IsExported() {
						continue
					}
					name = typ.Name + "." + name
				}
				got = append(got, name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if slices.Equal(got, exportedSurface) {
		return
	}
	for _, n := range got {
		if !slices.Contains(exportedSurface, n) {
			t.Errorf("exported but not in exportedSurface: %s", n)
		}
	}
	for _, n := range exportedSurface {
		if !slices.Contains(got, n) {
			t.Errorf("in exportedSurface but not exported: %s", n)
		}
	}
}
