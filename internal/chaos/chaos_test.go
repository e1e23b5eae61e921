package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestChaosTable drives the chaos type's invariants from the table, the
// TestEveryCounterRow pattern: every rate field of Chaos (an int other
// than DelaySpins) is named by exactly one row, every duration field
// (an int64 other than Seed) by exactly one row's dur,
// every field has a distinct omitempty bundle key, the dump names are
// unique — and the site IDs, which bundles carry in their event
// streams, keep their values.
func TestChaosTable(t *testing.T) {
	rateRows, durRows, names := map[uintptr]uint8{}, map[uintptr]uint8{}, map[string]bool{}
	for s := uint8(1); s < NumSites; s++ {
		row := sites[s]
		if prev, dup := rateRows[row.rate]; dup {
			t.Errorf("sites %d and %d name the same rate field", prev, s)
		}
		rateRows[row.rate] = s
		if row.name == "" || names[row.name] || SiteName(s) != row.name {
			t.Errorf("site %d: name %q (SiteName %q) is empty or taken", s, row.name, SiteName(s))
		}
		names[row.name] = true
		if row.dur != 0 {
			durRows[row.dur] = s
			if row.durDefaultUS <= 0 {
				t.Errorf("site %s has a duration and no default for it", row.name)
			}
		}
	}
	typ, keys := reflect.TypeOf(Chaos{}), map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, opt, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "" || keys[key] || (opt != "omitempty") != (f.Name == "Seed") {
			t.Errorf("field %s: bundle key %q (%q) is empty, taken or not omitempty", f.Name, key, opt)
		}
		keys[key] = true
		switch {
		case f.Name == "Seed" || f.Name == "DelaySpins":
		case f.Type.Kind() == reflect.Int:
			if _, ok := rateRows[f.Offset]; !ok {
				t.Errorf("rate field %s has no row in sites (and so no Site, dump name or shrinker pass)", f.Name)
			}
			delete(rateRows, f.Offset)
		case f.Type.Kind() == reflect.Int64 && strings.HasSuffix(f.Name, "US"):
			if _, ok := durRows[f.Offset]; !ok {
				t.Errorf("duration field %s is no row's dur", f.Name)
			}
			delete(durRows, f.Offset)
		default:
			t.Errorf("field %s: a %v is neither a rate nor a microsecond duration", f.Name, f.Type)
		}
	}
	if len(rateRows)+len(durRows) != 0 {
		t.Errorf("rows that name no field of their kind: rates %v, durations %v", rateRows, durRows)
	}
	if SiteStealFail != 1 || SiteLeakVessel != 5 || SiteWakeDelay != 11 || NumSites != 12 {
		t.Error("site IDs moved: they are part of the bundle format, append new ones before NumSites")
	}
	if SiteName(0) != "site0" || SiteName(NumSites) != "site12" {
		t.Errorf("out-of-range sites print %q and %q", SiteName(0), SiteName(NumSites))
	}
}

// TestChaosEverySite arms one site at a time: the rate reads back
// through Rate and through the struct field the row names, the block is
// not Zero, it survives the bundle encoding, WithDefaults fills exactly
// the duration the row declares, and disarming clears that duration.
func TestChaosEverySite(t *testing.T) {
	if !(&Chaos{Seed: 3, DelaySpins: 2}).Zero() {
		t.Error("seed and spins alone must count as nothing armed")
	}
	for s := uint8(1); s < NumSites; s++ {
		c := Chaos{Seed: 9, DelaySpins: 1}
		c.SetRate(s, 40)
		if c.Rate(s) != 40 || c.Zero() {
			t.Fatalf("%s: Rate = %d, Zero = %v after SetRate(40)", SiteName(s), c.Rate(s), c.Zero())
		}
		armed := 0
		v := reflect.ValueOf(c)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Int && f.Int() == 40 {
				armed++
			}
		}
		if armed != 1 {
			t.Errorf("%s: SetRate wrote %d int fields", SiteName(s), armed)
		}
		filled := c.WithDefaults(5)
		if d := filled.dur(s); (d != nil) != (sites[s].dur != 0) || d != nil && *d != sites[s].durDefaultUS {
			t.Errorf("%s: WithDefaults gave duration %v", SiteName(s), d)
		}
		if c.Seed != 9 || filled.Seed != 9 || (Chaos{}).WithDefaults(5).Seed != 5 || (Chaos{}).WithDefaults(5).DelaySpins != 16 {
			t.Errorf("%s: WithDefaults mishandled seed or spins: %+v", SiteName(s), filled)
		}
		b, err := json.Marshal(filled)
		if err != nil {
			t.Fatal(err)
		}
		var back Chaos
		if err := json.Unmarshal(b, &back); err != nil || back != *filled {
			t.Errorf("%s: %s decodes to %+v (err %v), want %+v", SiteName(s), b, back, err, *filled)
		}
		filled.SetRate(s, 0)
		if !filled.Zero() || filled.dur(s) != nil && *filled.dur(s) != 0 {
			t.Errorf("%s: disarming left %+v", SiteName(s), filled)
		}
	}
}

// TestChaosGoldenJSON decodes a chaos block as the old ChaosSpec struct
// tags wrote it: every key of that encoding, plus a key this version
// does not know and the retired keys — the one-shot sync stall's and the
// two vessel-budget injections' — which decode to nothing.
func TestChaosGoldenJSON(t *testing.T) {
	const golden = `{"seed":11,"steal_delay":1,"steal_fail":2,"pop_bottom_delay":3,"sync_delay":4,` +
		`"alloc_fail":5,"sync_vessel_fail":6,"leak_vessel":7,"submit_fail":8,"steal_interest":9,` +
		`"delay_spins":10,"stall_worker":11,"stall_for_us":2000,"submit_latency":12,` +
		`"submit_latency_for_us":500,"abort_wait":13,"wakeup_delay":14,"from_the_future":1,` +
		`"sync_stall_us":400000}`
	want := Chaos{
		Seed: 11, StealDelay: 1, StealFail: 2, PopBottomDelay: 3, SyncDelay: 4,
		LeakVessel: 7, SubmitFail: 8, StealInterest: 9,
		DelaySpins: 10, StallWorker: 11, StallForUS: 2000, SubmitLatency: 12,
		SubmitLatencyForUS: 500, AbortWait: 13, WakeupDelay: 14,
	}
	var got Chaos
	if err := json.Unmarshal([]byte(golden), &got); err != nil || got != want {
		t.Fatalf("golden block decodes to %+v (err %v), want %+v", got, err, want)
	}
}

// TestChaosPreStealDrawOrder pins the thief-side draw order both runtimes
// depend on for bundle reproducibility: StealFail is rolled first, a hit
// returns without drawing StealDelay, and a miss draws StealDelay once.
// So a disarmed StealFail draws nothing, and the k-th StealDelay
// decision is the same whether StealFail is armed or at rate 0.
func TestChaosPreStealDrawOrder(t *testing.T) {
	const n, delayRate = 256, 300
	delays := func(failRate int) (decisions []bool, fails int) {
		c := &Chaos{StealFail: failRate, StealDelay: delayRate}
		var st Streams
		st.Seed(7, 3)
		for i := 0; i < n; i++ {
			before := st
			failed := st.PreSteal(c)
			drewFail := st.s[SiteStealFail] != before.s[SiteStealFail]
			drewDelay := st.s[SiteStealDelay] != before.s[SiteStealDelay]
			switch {
			case drewFail != (failRate > 0):
				t.Fatalf("StealFail at rate %d: attempt %d drew %v on its stream", failRate, i, drewFail)
			case failed && drewDelay:
				t.Fatalf("StealFail at rate %d: attempt %d hit StealFail and still drew StealDelay", failRate, i)
			case !failed && !drewDelay:
				t.Fatalf("StealFail at rate %d: attempt %d missed StealFail and drew no StealDelay", failRate, i)
			case failed:
				fails++
			default:
				decisions = append(decisions, int(st.s[SiteStealDelay]&1023) < delayRate)
			}
		}
		return decisions, fails
	}
	plain, plainFails := delays(0)
	armed, armedFails := delays(512)
	if plainFails != 0 || len(plain) != n || armedFails == 0 || len(armed) == 0 {
		t.Fatalf("fails %d and %d, StealDelay draws %d and %d: the rates did not split the attempts",
			plainFails, armedFails, len(plain), len(armed))
	}
	var ref Streams
	ref.Seed(7, 3)
	for k, d := range plain {
		if ref.Roll(SiteStealDelay, delayRate) != d {
			t.Fatalf("StealDelay decision %d differs from the site's bare stream", k)
		}
		if k < len(armed) && armed[k] != d {
			t.Fatalf("StealDelay decision %d is %v with StealFail armed, %v at rate 0", k, armed[k], d)
		}
	}
}
