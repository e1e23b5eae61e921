package replay

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestBundleRoundTrip: a bundle is its meta, and WriteBundle/ReadBundle
// give it back unchanged. A bundle written while bundles still carried
// event tails loads too, the tails ignored.
func TestBundleRoundTrip(t *testing.T) {
	b := Bundle{Meta: Meta{
		Tool: "test", Kernel: "fib", Scale: "test", Variant: "nowa",
		Workers: 2, Seed: 42,
		Chaos:   &Chaos{Seed: 7, StealFail: 64, LeakVessel: 8, StallWorker: 3, StallForUS: 2000},
		Failure: "synthetic",
	}}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("bundle round trip:\n got %+v\nwant %+v", got, b)
	}
	old := bytes.Replace(buf.Bytes(), []byte(`"meta": {`), []byte(`"events": ["run-start chaos[sync-delay]+", "panic"], "meta": {`), 1)
	if got, err := ReadBundle(bytes.NewReader(old)); err != nil || !reflect.DeepEqual(got, b) {
		t.Errorf("a bundle with event tails read back as %+v (%v), want %+v", got, err, b)
	}
}

func TestBundleRejectsGarbage(t *testing.T) {
	if _, err := ReadBundle(bytes.NewReader([]byte("not a bundle at all"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestBundleRefusesOldVersion: a binary bundle of the schedule-log
// formats that came before JSON bundles is refused by name.
func TestBundleRefusesOldVersion(t *testing.T) {
	old := []byte("NOWAREPL2\n\x10\x00\x00\x00{\"tool\":\"test\"}")
	_, err := ReadBundle(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "NOWAREPL2") {
		t.Errorf("a NOWAREPL2 bundle read back with error %v, want one naming the format", err)
	}
}
