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

func TestCursorVictimAndChaos(t *testing.T) {
	l := &Log{PerWorker: [][]Event{{
		{Kind: KRunStart},
		{Kind: KStealEmpty, Arg: 2},
		{Kind: KPopMiss},
		{Kind: KChaos, Site: SitePopBottom, Arg: 1},
		{Kind: KStealHit, Arg: 0},
	}}, Dropped: []uint64{0}}
	cur := l.Cursors()
	c := &cur[0]
	if v, ok := c.NextVictim(); !ok || v != 2 {
		t.Fatalf("first victim = %d,%v want 2,true", v, ok)
	}
	if fired, ok := c.NextChaos(SitePopBottom); !ok || !fired {
		t.Fatalf("chaos roll = %v,%v want true,true", fired, ok)
	}
	if v, ok := c.NextVictim(); !ok || v != 0 {
		t.Fatalf("second victim = %d,%v want 0,true", v, ok)
	}
	if _, ok := c.NextVictim(); ok {
		t.Fatal("exhausted cursor still yields decisions")
	}
	if c.Divergences() != 0 {
		t.Errorf("divergences = %d, want 0", c.Divergences())
	}
}

func TestCursorDivergence(t *testing.T) {
	l := &Log{PerWorker: [][]Event{{
		{Kind: KChaos, Site: SiteStealFail, Arg: 0},
		{Kind: KStealHit, Arg: 1},
	}}, Dropped: []uint64{0}}
	cur := l.Cursors()
	c := &cur[0]
	// Ask for a victim when the next decision is a chaos roll: divergence,
	// stream not consumed.
	if _, ok := c.NextVictim(); ok {
		t.Fatal("mismatched decision must not replay")
	}
	if c.Divergences() != 1 {
		t.Fatalf("divergences = %d, want 1", c.Divergences())
	}
	// The chaos decision is still there; a site mismatch consumes it but
	// counts another divergence.
	if _, ok := c.NextChaos(SiteSyncDelay); ok {
		t.Fatal("site-mismatched chaos roll must not replay")
	}
	if c.Divergences() != 2 {
		t.Fatalf("divergences = %d, want 2", c.Divergences())
	}
	// The steal decision remains replayable.
	if v, ok := c.NextVictim(); !ok || v != 1 {
		t.Fatalf("victim after mismatches = %d,%v want 1,true", v, ok)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	r := NewRecorder(2, 16)
	r.Record(0, KRunStart, 0, 0)
	r.Record(0, KChaos, SiteSyncDelay, 1)
	r.Record(1, KStealLost, 0, 0)
	r.RecordExternal(KPanic, 0, 0)
	log := r.Snapshot()
	meta := Meta{
		Tool: "test", Kernel: "fib", Scale: "test", Variant: "nowa",
		Workers: 2, Seed: 42,
		Chaos:   &Chaos{Seed: 7, StealFail: 64, LeakVessel: 8, StallWorker: 3, StallForUS: 2000},
		Failure: "synthetic",
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, meta, log); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	gotMeta, gotLog, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Errorf("meta round trip:\n got %+v\nwant %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(gotLog, log) {
		t.Errorf("log round trip:\n got %+v\nwant %+v", gotLog, log)
	}
}

func TestBundleRejectsGarbage(t *testing.T) {
	if _, _, err := ReadBundle(bytes.NewReader([]byte("not a bundle at all"))); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestBundleRefusesOldVersion: a bundle of an older format version is
// refused by name, never decoded against this version's site IDs.
func TestBundleRefusesOldVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBundle(&buf, Meta{Tool: "test", Variant: "nowa", Workers: 1}, NewRecorder(1, 4).Snapshot()); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("NOWAREPL1\n"), buf.Bytes()[len(bundleMagic):]...)
	_, _, err := ReadBundle(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "NOWAREPL1") {
		t.Errorf("a NOWAREPL1 bundle read back with error %v, want one naming the version", err)
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
// up to the newest one, so dumps and traces never print "unknown" — bar
// the retired numbers, which no recorder emits.
func TestEveryKindNamed(t *testing.T) {
	seen := map[string]Kind{}
	for k := KRunStart; k <= KStrandEnd; k++ {
		if k == kindRetired {
			continue
		}
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

// kindRetired is the number the blank in the Kind block holds.
const kindRetired Kind = 15

// TestKindNumbersPinned: bundles carry every event's Kind as
// its number, so deleting or inserting a kind mid-block must not
// renumber the kinds after it. A retired kind leaves a blank behind.
func TestKindNumbersPinned(t *testing.T) {
	golden := []struct {
		kind Kind
		num  int
		name string
	}{
		{KNone, 0, "unknown"},
		{KRunStart, 1, "run-start"},
		{KRunEnd, 2, "run-end"},
		{KVictim, 3, "victim"},
		{KStealHit, 4, "steal-hit"},
		{KStealEmpty, 5, "steal-empty"},
		{KStealLost, 6, "steal-lost"},
		{KPopHit, 7, "pop-hit"},
		{KPopMiss, 8, "pop-miss"},
		{KPark, 9, "park"},
		{KWake, 10, "wake"},
		{KSuspend, 11, "suspend"},
		{KResume, 12, "resume"},
		{KBlocked, 13, "blocked"},
		{KChaos, 14, "chaos"},
		{kindRetired, 15, "unknown"},
		{KPanic, 16, "panic"},
		{KSubmit, 17, "submit"},
		{KSubReject, 18, "submit-reject"},
		{KSubShed, 19, "submit-shed"},
		{KSubStart, 20, "submit-start"},
		{KSubDone, 21, "submit-done"},
		{KInlineRun, 22, "inline-run"},
		{KPromote, 23, "promote"},
		{KSeized, 24, "seized"},
		{KSupplement, 25, "supplement"},
		{KWaitBlock, 26, "wait-block"},
		{KWaitWake, 27, "wait-wake"},
		{KWaitAbort, 28, "wait-abort"},
		{KSpawn, 29, "spawn"},
		{KStrandStart, 30, "strand-start"},
		{KStrandEnd, 31, "strand-end"},
	}
	if len(golden) != int(KStrandEnd)+1 {
		t.Fatalf("golden table has %d rows for %d kinds: add the new kind's row", len(golden), KStrandEnd+1)
	}
	for i, g := range golden {
		if int(g.kind) != g.num || g.num != i || g.kind.String() != g.name {
			t.Errorf("row %d: kind %d named %q, want number %d named %q", i, g.kind, g.kind.String(), g.num, g.name)
		}
	}
}
