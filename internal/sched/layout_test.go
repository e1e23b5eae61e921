package sched

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLayout pins the size and field offsets of the per-slot and
// per-strand records and of Runtime's hot words, so that a layout change
// — a field added to a slot's line group, a Config field moving the words
// after it — reads as a diff of testdata/layout.golden in review. The
// golden file holds the 64-bit layout.
func TestLayout(t *testing.T) {
	if reflect.TypeFor[uintptr]().Size() != 8 {
		t.Skip("the golden layout is for 8-byte pointers")
	}
	var b strings.Builder
	// row prints typ's size and the offsets of the named fields, or of
	// every named field when none is given.
	row := func(typ reflect.Type, fields ...string) {
		if len(fields) == 0 {
			for i := 0; i < typ.NumField(); i++ {
				if f := typ.Field(i); f.Name != "_" {
					fields = append(fields, f.Name)
				}
			}
		}
		fmt.Fprintf(&b, "%s size=%d", typ.Name(), typ.Size())
		for _, name := range fields {
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Fatalf("%s has no field %s", typ.Name(), name)
			}
			fmt.Fprintf(&b, " %s@%d", name, f.Offset)
		}
		b.WriteByte('\n')
	}
	row(reflect.TypeFor[slot]())
	row(reflect.TypeFor[Runtime](), "chaosOn", "waitFree", "lazyOn", "stallOn", "slots", "pool", "rec", "cfg")
	row(reflect.TypeFor[vessel]())
	row(reflect.TypeFor[Proc]())
	row(reflect.TypeFor[scope]())
	CheckGolden(t, filepath.Join("testdata", "layout.golden"), b.String())
}
