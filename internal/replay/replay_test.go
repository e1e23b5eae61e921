package replay

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []Event{
		{Kind: KRunStart},
		{Kind: KStealHit, Arg: 3},
		{Kind: KStealEmpty, Arg: 65535},
		{Kind: KChaos, Site: SiteLeakVessel, Arg: 1},
		{Kind: KBlocked, Site: BlockSync},
		{Kind: KSubmit, Arg: 1234},
	}
	for _, e := range cases {
		if got := unpack(pack(e.Kind, e.Site, e.Arg)); got != e {
			t.Errorf("round trip %+v -> %+v", e, got)
		}
	}
}

func TestRecorderOrderAndSnapshot(t *testing.T) {
	r := NewRecorder(2, 16)
	r.Record(0, KRunStart, 0, 0)
	r.Record(0, KStealEmpty, 0, 1)
	r.Record(1, KChaos, SiteStealFail, 1)
	r.RecordExternal(KSeized, 0, 7)
	l := r.Snapshot()
	want0 := []Event{{Kind: KRunStart}, {Kind: KStealEmpty, Arg: 1}}
	if !reflect.DeepEqual(l.PerWorker[0], want0) {
		t.Errorf("worker 0 stream = %v, want %v", l.PerWorker[0], want0)
	}
	want1 := []Event{{Kind: KChaos, Site: SiteStealFail, Arg: 1}}
	if !reflect.DeepEqual(l.PerWorker[1], want1) {
		t.Errorf("worker 1 stream = %v, want %v", l.PerWorker[1], want1)
	}
	wantExt := []Event{{Kind: KSeized, Arg: 7}}
	if !reflect.DeepEqual(l.External, wantExt) {
		t.Errorf("external stream = %v, want %v", l.External, wantExt)
	}
	if l.Truncated() {
		t.Error("log reports truncation with rings far from full")
	}
	if got := l.Total(); got != 4 {
		t.Errorf("Total = %d, want 4", got)
	}
}

func TestRingOverwriteKeepsNewestAndCountsDrops(t *testing.T) {
	const cap = 8
	r := NewRecorder(1, cap)
	const n = 20
	for i := 0; i < n; i++ {
		r.Record(0, KPopHit, 0, uint16(i))
	}
	l := r.Snapshot()
	if got := len(l.PerWorker[0]); got != cap {
		t.Fatalf("kept %d events, want %d", got, cap)
	}
	for i, e := range l.PerWorker[0] {
		if want := uint16(n - cap + i); e.Arg != want {
			t.Errorf("event %d arg = %d, want %d (newest-last)", i, e.Arg, want)
		}
	}
	if l.Dropped[0] != n-cap {
		t.Errorf("Dropped = %d, want %d", l.Dropped[0], n-cap)
	}
	if !l.Truncated() {
		t.Error("log with overwritten events must report Truncated")
	}
}

func TestLastEventsMidRunView(t *testing.T) {
	r := NewRecorder(1, 16)
	for i := 0; i < 5; i++ {
		r.Record(0, KPopHit, 0, uint16(i))
	}
	evs := r.LastEvents(0, 3)
	if len(evs) != 3 || evs[0].Arg != 2 || evs[2].Arg != 4 {
		t.Errorf("LastEvents(0,3) = %v, want args 2..4", evs)
	}
	if got := r.LastEvents(99, 3); got != nil {
		t.Errorf("out-of-range worker returned %v", got)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	r := NewRecorder(2, 16)
	r.Record(0, KRunStart, 0, 0)
	r.Record(0, KChaos, SiteSyncDelay, 1)
	r.Record(1, KStealLost, 0, 0)
	r.RecordExternal(KPanic, 0, 0)
	meta := Meta{
		Tool: "test", Kernel: "fib", Scale: "test", Variant: "nowa",
		Workers: 2, Seed: 42,
		Chaos:   &Chaos{Seed: 7, StealFail: 64, LeakVessel: 8, StallWorker: 3, StallForUS: 2000},
		Failure: "synthetic",
	}
	b := NewBundle(meta, r)
	want := []string{"run-start chaos[sync-delay]+", "steal-lost(0)", "panic"}
	if !reflect.DeepEqual(b.Events, want) {
		t.Errorf("bundle events = %q, want %q", b.Events, want)
	}
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

func TestFormatEvents(t *testing.T) {
	s := FormatEvents([]Event{
		{Kind: KStealHit, Arg: 3},
		{Kind: KChaos, Site: SiteStealFail, Arg: 1},
		{Kind: KBlocked, Site: BlockSpawn},
	})
	want := "steal-hit(3) chaos[steal-fail]+ blocked[spawn]"
	if s != want {
		t.Errorf("FormatEvents = %q, want %q", s, want)
	}
	if got := FormatEvents(nil); got != "(none)" {
		t.Errorf("empty format = %q", got)
	}
}

// TestEveryKindNamed: the name table has a distinct row for every kind
// up to the newest one, so dumps, traces and bundles never print
// "unknown".
func TestEveryKindNamed(t *testing.T) {
	seen := map[string]Kind{}
	for k := KRunStart; k <= KStrandEnd; k++ {
		name := k.String()
		if prev, dup := seen[name]; dup || name == "unknown" {
			t.Errorf("kind %d: name %q (also kind %d)", k, name, prev)
		}
		seen[name] = k
	}
	if len(kindNames) != int(KStrandEnd)+1 {
		t.Errorf("name table has %d rows for %d kinds: extend this test with the new last kind", len(kindNames), KStrandEnd+1)
	}
	if KNone.String() != "unknown" || Kind(200).String() != "unknown" {
		t.Error("the zero and out-of-range kinds must print unknown")
	}
}
