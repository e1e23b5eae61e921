package torture

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nowa/internal/chaos"
)

// TestBundleRoundTrip: a bundle is its meta, and save/load give it back
// unchanged. A bundle written while bundles still carried event tails
// loads too, the tails ignored.
func TestBundleRoundTrip(t *testing.T) {
	m := Meta{
		Tool: "test", Kernel: "fib", Scale: "test", Variant: "nowa",
		Workers: 2, Seed: 42,
		Chaos:   &chaos.Chaos{Seed: 7, StealFail: 64, LeakVessel: 8, StallWorker: 3, StallForUS: 2000},
		Failure: "synthetic",
	}
	path := filepath.Join(t.TempDir(), "x.bundle")
	if err := save(path, m); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("bundle round trip:\n got %+v\nwant %+v", got, m)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(raw, []byte(`"meta": {`), []byte(`"events": ["run-start chaos[sync-delay]+", "panic"], "meta": {`), 1)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := load(path); err != nil || !reflect.DeepEqual(got, m) {
		t.Errorf("a bundle with event tails read back as %+v (%v), want %+v", got, err, m)
	}
}

func TestBundleRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.bundle")
	if err := os.WriteFile(path, []byte("not a bundle at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil {
		t.Error("garbage accepted")
	}
}

// TestBundleRefusesOldVersion: a binary bundle of the schedule-log
// formats that came before JSON bundles is refused by name.
func TestBundleRefusesOldVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.bundle")
	if err := os.WriteFile(path, []byte("NOWAREPL2\n\x10\x00\x00\x00{\"tool\":\"test\"}"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := load(path)
	if err == nil || !strings.Contains(err.Error(), "NOWAREPL2") {
		t.Errorf("a NOWAREPL2 bundle read back with error %v, want one naming the format", err)
	}
}
