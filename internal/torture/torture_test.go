package torture

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nowa/internal/chaos"
	"nowa/internal/sched"
)

func soakConfig(t *testing.T, names ...string) Config {
	return Config{
		Seed: 1, Out: t.TempDir(),
		Kernels: []string{"fib"}, Variants: []string{"nowa"}, Chaos: names,
		MaxWorkers: 4,
		Stdout:     io.Discard, Stderr: io.Discard,
	}
}

// TestChaosClassValidation pins the -chaos vocabulary checks: Soak must
// refuse an unknown class loudly (exit 2) instead of silently drawing
// from a truncated list, and every advertised class must be accepted,
// drawable and labelled by its own name — the name travels with the
// trial, so no threshold guess can relabel a shrunk one.
func TestChaosClassValidation(t *testing.T) {
	var stderr bytes.Buffer
	c := soakConfig(t, "definitely-not-a-class")
	c.Stderr = &stderr // Duration is zero: validation runs, no trial does
	if got := Soak(c); got != 2 || !strings.Contains(stderr.String(), "definitely-not-a-class") {
		t.Fatalf("soak with unknown chaos class: exit %d, stderr %q, want 2 and the name", got, stderr.String())
	}
	if got := Soak(soakConfig(t)); got != 2 {
		t.Fatalf("soak with empty chaos list: exit %d, want 2", got)
	}
	if got := Soak(soakConfig(t, ClassNames()...)); got != 0 {
		t.Fatalf("soak with the full class list: exit %d, want 0", got)
	}
	rng := rand.New(rand.NewSource(7))
	for _, cl := range Classes {
		m := drawTrial(soakConfig(t), []Class{cl}, rng, 0)
		if (m.Chaos == nil) != (cl.Name == "off") {
			t.Fatalf("class %s drew chaos %+v", cl.Name, m.Chaos)
		}
		if got := label(m, nil); !strings.Contains(got, " chaos="+cl.Name+" ") {
			t.Fatalf("class %s is labelled %q", cl.Name, got)
		}
		if m.Chaos != nil && m.Chaos.LeakVessel != 0 {
			t.Fatalf("class %s armed the planted LeakVessel bug", cl.Name)
		}
		m.Chaos = nil // what a shrinker may end with
		if got := label(m, nil); !strings.Contains(got, " chaos="+cl.Name+" ") {
			t.Fatalf("class %s, shrunk, is relabelled %q", cl.Name, got)
		}
	}
}

// TestAbortTrialDraw pins the abort-class trial shape: a blocking
// kernel and eager spawns.
func TestAbortTrialDraw(t *testing.T) {
	abort, err := classes([]string{"abort"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 32; n++ {
		m := drawTrial(soakConfig(t), abort, rng, n)
		if m.Chaos == nil || m.Chaos.AbortWait == 0 {
			t.Fatalf("trial %d: no abort chaos drawn: %+v", n, m.Chaos)
		}
		if m.Kernel != "pipeline" && m.Kernel != "bfs" {
			t.Fatalf("trial %d: abort class drew non-blocking kernel %q", n, m.Kernel)
		}
		if !m.SpawnEager {
			t.Fatalf("trial %d: abort class without eager spawns", n)
		}
	}
}

// TestAbortTrialRuns runs short abort-class trials end to end through
// run — the same invariant battery the soak applies, including the
// wait-conservation bar — on both blocking kernels, with and without a
// deadline.
func TestAbortTrialRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full trials")
	}
	abort, err := classes([]string{"abort"})
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []string{"pipeline", "bfs"} {
		for _, timeoutMS := range []int64{0, 1} {
			cc := *abort[0].Chaos
			cc.Seed = 11
			m := Meta{
				Tool: "nowa-torture", Scale: "test",
				Kernel: kernel, Variant: "nowa",
				Workers: 2, Seed: 11,
				SpawnEager: true,
				TimeoutMS:  timeoutMS,
				Class:      "abort", Chaos: &cc,
			}
			if f := run(m, nil); f != "" {
				t.Fatalf("%s timeout=%dms: %s", kernel, timeoutMS, f)
			}
		}
	}
}

// TestClassRoundTrip takes every class row, batch and service, through
// the whole life of a failing trial's description: draw → label →
// save → load → buildConfig must give the configuration the
// drawn trial ran under. The admission-path rates must reach service
// trials only, and stall recovery must be armed exactly for the classes
// that ask for it.
func TestClassRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cl := range Classes {
		for _, service := range []bool{false, true} {
			c := soakConfig(t)
			c.Service = service
			for n := 0; n < 8; n++ {
				m := drawTrial(c, []Class{cl}, rng, n)
				want, err := buildConfig(m)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(c.Out, "x.bundle")
				if err := save(path, m); err != nil {
					t.Fatal(err)
				}
				back, err := load(path)
				if err != nil {
					t.Fatal(err)
				}
				got, err := buildConfig(back)
				if err != nil || !reflect.DeepEqual(got, want) || label(back, nil) != label(m, nil) {
					t.Fatalf("%s service=%v: bundle rebuilds\n %+v (%v)\nwant\n %+v", cl.Name, service, got, err, want)
				}
				if m.Chaos != nil && (m.Chaos.SubmitFail != 0) != service {
					t.Fatalf("%s service=%v: SubmitFail = %d", cl.Name, service, m.Chaos.SubmitFail)
				}
				armed := m.StallThresholdUS > 0
				if (want.StallThreshold > 0) != armed || armed != (cl.RecoveryUS > 0) {
					t.Fatalf("%s: stall threshold %v for recovery %dµs", cl.Name, want.StallThreshold, m.StallThresholdUS)
				}
			}
		}
	}
}

// TestGoldenMeta decodes a meta block exactly as the parent commit's
// -selftest wrote it (extracted from its bundle) plus one with every
// field the parent could write, and checks the configuration they
// rebuild.
func TestGoldenMeta(t *testing.T) {
	for _, tc := range []struct {
		golden string
		edit   func(*sched.Config)
	}{
		{`{"tool":"nowa-torture","kernel":"fib","scale":"test","variant":"nowa","workers":1,"seed":7,` +
			`"chaos":{"seed":11,"leak_vessel":24,"steal_interest":1024,"delay_spins":1},` +
			`"failure":"vessel-leak: 88 vessels never returned to a free list"}`,
			func(c *sched.Config) {
				c.Workers, c.Seed = 1, 7
				c.Chaos = &chaos.Chaos{Seed: 11, LeakVessel: 24, StealInterest: 1024, DelaySpins: 1}
			}},
		{`{"tool":"nowa-torture","kernel":"pipeline","scale":"test","variant":"cilkplus","workers":4,"seed":9,` +
			`"timeout_ms":5,"spawn_eager":true,` +
			`"chaos":{"seed":3,"steal_fail":16,"delay_spins":2,"stall_worker":48,"stall_for_us":2000,` +
			`"submit_latency":16,"submit_latency_for_us":500},"stall_threshold_us":500}`,
			func(c *sched.Config) {
				c.Workers, c.Seed = 4, 9
				c.Spawn = sched.SpawnEager
				c.Stacks.GlobalCap = 8 * 4 // the cilkplus bound at 4 workers
				c.StallThreshold = 500 * time.Microsecond
				c.Chaos = &chaos.Chaos{Seed: 3, StealFail: 16, DelaySpins: 2, StallWorker: 48, StallForUS: 2000,
					SubmitLatency: 16, SubmitLatencyForUS: 500}
			}},
	} {
		var m Meta
		if err := json.Unmarshal([]byte(tc.golden), &m); err != nil {
			t.Fatal(err)
		}
		want, err := sched.VariantConfig(m.Variant, 0)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(&want)
		if got, err := buildConfig(m); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("golden meta rebuilds\n %+v (%v)\nwant\n %+v", got, err, want)
		}
	}
}

// TestReplayBundleWithParkAfter is the bundle-compatibility bar: a meta
// written while the scheduler still had a park threshold carries
// "park_after". It must load, the key ignored, and rerun to the failure
// it recorded.
func TestReplayBundleWithParkAfter(t *testing.T) {
	c := soakConfig(t)
	m := Meta{
		Tool: "nowa-torture", Kernel: "fib", Scale: "test", Variant: "nowa", Workers: 1, Seed: 7,
		Chaos: &chaos.Chaos{Seed: 11, LeakVessel: 24, StealInterest: 1024, DelaySpins: 1},
	}
	path, err := c.capture(m, "vessel-leak", "")
	if err != nil || path == "" {
		t.Fatalf("capture: %q, %v", path, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Splice the old key into the meta object.
	const meta = `"meta": {`
	if !bytes.Contains(raw, []byte(meta)) {
		t.Fatalf("bundle layout changed:\n%s", raw)
	}
	old := bytes.Replace(raw, []byte(meta), []byte(meta+`"park_after":64,`), 1)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c.Stdout = &out
	if code := Replay(path, c); code != 0 || !strings.Contains(out.String(), "\nreproduced: vessel-leak: ") {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
}

// TestShrinkSynthetic drives the shrinker with a predicate in place of
// scheduler runs: the failure needs LeakVessel at 3/1024 or more and two
// workers, nothing else. The shrinker must reach exactly that minimum —
// keeping the knob that causes the failure, clearing the duration of the
// injection it dropped — within its budget of reruns.
func TestShrinkSynthetic(t *testing.T) {
	start := Meta{
		Tool: "nowa-torture", Kernel: "fib", Variant: "fibril", Workers: 8, Seed: 5, Class: "heavy",
		TimeoutMS: 5, StallThresholdUS: 500,
		Chaos: &chaos.Chaos{Seed: 2, DelaySpins: 4, LeakVessel: 24, StealFail: 128,
			StallWorker: 48, StallForUS: 2000},
	}
	reruns := 0
	fails := func(m Meta) bool {
		reruns++
		return m.Workers >= 2 && m.Chaos != nil && m.Chaos.LeakVessel >= 3
	}
	var log bytes.Buffer
	got := shrink(start, fails, &log)
	want := Meta{
		Tool: "nowa-torture", Kernel: "fib", Variant: "fibril", Workers: 2, Seed: 5, Class: "heavy",
		Chaos: &chaos.Chaos{Seed: 2, DelaySpins: 4, LeakVessel: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shrunk to %+v chaos %+v\nwant      %+v chaos %+v", got, got.Chaos, want, want.Chaos)
	}
	if reruns > shrinkBudget {
		t.Errorf("%d reruns, budget %d", reruns, shrinkBudget)
	}
	if start.Chaos.LeakVessel != 24 || start.Chaos.StallForUS == 0 {
		t.Errorf("the shrinker edited its input's chaos block: %+v", start.Chaos)
	}
	for _, kept := range []string{"workers halved", "deadline dropped",
		"stall recovery disarmed", "chaos steal-fail dropped", "chaos stall-worker dropped", "chaos leak-vessel halved"} {
		if !strings.Contains(log.String(), "shrink: kept "+kept+"\n") {
			t.Errorf("log lacks %q:\n%s", kept, log.String())
		}
	}

	// A failure nothing reduces costs one rerun per reduction and site,
	// then stops; one that everything reduces ends with no chaos at all.
	reruns = 0
	if got := shrink(start, func(m Meta) bool { reruns++; return reflect.DeepEqual(m, start) }, nil); !reflect.DeepEqual(got, start) || reruns > 16 {
		t.Errorf("irreducible trial: %d reruns, ended at %+v", reruns, got)
	}
	if got := shrink(start, func(Meta) bool { return true }, nil); got.Chaos != nil || got.Workers != 1 {
		t.Errorf("a trial that always fails shrinks to %+v", got)
	}
	// The budget is hard: a predicate that keeps accepting halvings of a
	// huge rate cannot run the shrinker past it.
	reruns = 0
	big := Meta{Workers: 1 << 40, Chaos: &chaos.Chaos{StealFail: 1 << 40, SyncDelay: 1 << 40}}
	shrink(big, func(m Meta) bool {
		reruns++
		return m.Chaos != nil && m.Chaos.StealFail > 0 && m.Chaos.SyncDelay > 0
	}, nil)
	if reruns != shrinkBudget {
		t.Errorf("unbounded halving: %d reruns, want exactly the budget of %d", reruns, shrinkBudget)
	}
}
