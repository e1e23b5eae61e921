package apps

import (
	"testing"

	"nowa/internal/api"
	"nowa/internal/cactus"
	"nowa/internal/childsteal"
	"nowa/internal/sched"
)

// TestSuiteOnEveryRuntime is the cross-module integration test: all 12
// benchmarks × all 8 runtime variants, each run verified.
func TestSuiteOnEveryRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix skipped in -short mode")
	}
	const workers = 4
	type mk struct {
		name string
		new  func() api.Runtime
	}
	var makers []mk
	for _, name := range sched.Variants() {
		cfg, err := sched.VariantConfig(name, workers)
		if err != nil {
			t.Fatal(err)
		}
		makers = append(makers, mk{name, func() api.Runtime { return sched.MustNew(cfg) }})
	}
	for _, name := range childsteal.Variants() {
		rt, err := childsteal.New(name, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		makers = append(makers, mk{name, func() api.Runtime { return rt }})
	}
	for _, m := range makers {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			rt := m.new()
			if c, ok := rt.(interface{ Close() }); ok {
				defer c.Close()
			}
			for _, b := range All(Test) {
				b := b
				t.Run(b.Name(), func(t *testing.T) {
					b.Prepare()
					rt.Run(b.Run)
					if err := b.Verify(); err != nil {
						t.Fatalf("%s on %s: %v", b.Name(), rt.Name(), err)
					}
				})
			}
		})
	}
}

// TestMadviseVariantRunsSuite exercises the §V-B configuration end to
// end: the whole suite under page-releasing stack recirculation.
func TestMadviseVariantRunsSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	rt := sched.MustNew(sched.Config{
		Name:    "nowa-madvise",
		Workers: 4,
		Stacks:  cactus.Config{Madvise: true, StackBytes: 8192},
	})
	defer rt.Close()
	for _, b := range All(Test) {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			b.Prepare()
			rt.Run(b.Run)
			if err := b.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if rt.Stats().Stacks.MadviseCalls == 0 {
		t.Error("madvise variant recorded no page releases")
	}
}
