package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadCorpus loads one tree under testdata as a synthetic module rooted
// at corpus/<name>.
func loadCorpus(t *testing.T, name string) *Module {
	t.Helper()
	m, err := LoadTree(filepath.Join("testdata", name), "corpus/"+name)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", name, err)
	}
	return m
}

// wantFindings asserts a one-to-one match between the findings and the
// expected substrings (order-independent; the corpora pin positions via
// distinct messages, not line numbers, so editing a corpus file does not
// invalidate the test).
func wantFindings(t *testing.T, got []Finding, want []string) {
	t.Helper()
	matched := make([]bool, len(got))
	for _, w := range want {
		found := false
		for i, f := range got {
			if !matched[i] && strings.Contains(f.String(), w) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding matches %q", w)
		}
	}
	for i, f := range got {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestAtomicmixCorpus(t *testing.T) {
	m := loadCorpus(t, "atomicmix")
	wantFindings(t, RunAll(m, []*Analyzer{Atomicmix()}), []string{
		"plain access to field gate.state",
		"plain access to field gate.state",
	})
}

func TestHotpathCorpus(t *testing.T) {
	m := loadCorpus(t, "hotpath")
	wantFindings(t, RunAll(m, []*Analyzer{Hotpath()}), []string{
		"channel send in hot function badSend",
		"allocating builtin make in hot function helper (reached from //nowa:hotpath root viaCallee)",
		"defer statement in hot function badDefer",
		"closure capturing x in hot function badCapture",
		"interface conversion boxing int in hot function badBox",
		"map write in hot function badMapWrite",
		"allocating builtin new in hot function genHelper (reached from //nowa:hotpath root viaGeneric)",
	})
}

func TestPadguardCorpus(t *testing.T) {
	m := loadCorpus(t, "padguard")
	wantFindings(t, RunAll(m, []*Analyzer{Padguard()}), []string{
		"struct naked has atomic field n but no 128-byte padding",
		"struct naked has atomic field n but no compile-time guard",
		"struct raw has atomic field word but no 128-byte padding",
		"struct raw has atomic field word but no compile-time guard",
		"struct bareBlock has atomic field cells but no 128-byte padding",
		"struct bareBlock has atomic field cells but no compile-time guard",
		"struct nakedX has atomic field n but no 128-byte padding",
		"struct nakedX has atomic field n but no compile-time guard",
		"struct nakedRing has atomic field ring but no 128-byte padding",
		"struct nakedRing has atomic field ring but no compile-time guard",
	})
}

// TestCorporaUnderTypeAliases reruns the corpora whose fields are
// declared through internal/atomicx's aliases with go/types keeping
// aliases as *types.Alias, its default once go.mod says go 1.23.
func TestCorporaUnderTypeAliases(t *testing.T) {
	t.Setenv("GODEBUG", "gotypesalias=1")
	TestPadguardCorpus(t)
	TestLockorderCorpus(t)
}

func TestJoinencCorpus(t *testing.T) {
	m := loadCorpus(t, "joinenc")
	wantFindings(t, RunAll(m, []*Analyzer{Joinenc()}), []string{
		"direct access to join-state field Join.Alpha",
		"direct access to join-state field Join.Counter",
	})
}

func TestLockorderCorpus(t *testing.T) {
	m := loadCorpus(t, "lockorder")
	wantFindings(t, RunAll(m, []*Analyzer{Lockorder()}), []string{
		"lock outer (level 1) acquired while holding inner (level 2)",
		"lock outer (level 1) acquired while holding deq (level 3)",
		"lock outer acquired while already held (double-lock)",
		"call to (*state).lockInner re-acquires inner already held (double-lock)",
		"channel send while holding outer (level 1)",
		"call to sleeper (which may block on a channel or park) while holding outer (level 1)",
		"call to (*state).await (which may block on a channel or park) while holding outer (level 1)",
	})
}

func TestFsmCorpus(t *testing.T) {
	m := loadCorpus(t, "fsm")
	wantFindings(t, RunAll(m, []*Analyzer{Fsm()}), []string{
		"CompareAndSwap on fsm field gate.word implements undeclared transition idle>firing",
		"Store on fsm field gate.word: cannot infer the stored phase statically",
		"Add on fsm field gate.word",
		"CompareAndSwap on fsm field rawGate.raw implements undeclared transition armed>idle",
	})
}

func TestAnnotationGrammarCorpus(t *testing.T) {
	m := loadCorpus(t, "annotation")
	wantFindings(t, RunAll(m, nil), []string{
		`unknown //nowa: annotation verb "sizzling"`,
		"//nowa:coldpath requires a reason",
	})
}

// TestRepoClean is the meta-test: the full nowa-vet suite must come back
// empty on the repository itself, the same property `make verify` and CI
// enforce via cmd/nowa-vet.
func TestRepoClean(t *testing.T) {
	m, err := LoadModule("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if got := RunAll(m, All()); len(got) > 0 {
		for _, f := range got {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}
