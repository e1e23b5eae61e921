package main

import (
	"fmt"
	"runtime"
	"time"

	"nowa"
	"nowa/internal/api"
	"nowa/internal/apps"
	"nowa/internal/blockapps"
)

// sloLimit is the fixed latency limit of the serve workloads: an arrival
// meets it when it completed, correctly, within this long of its due time.
const sloLimit = 5 * time.Millisecond

// spinRounds sizes one strand of the three-strand submission task (the
// shape of loadgen.SpinTask(2000), with the checksum handed back).
const spinRounds = 2000

// workload is one named set of inputs. Exactly one of closed/open is set.
type workload struct {
	name string
	why  string

	// closed: rounds of kernels, one caller, rt.Run per kernel.
	kernels func(tiny bool) []apps.Benchmark
	eager   bool // SpawnEager runtime (blocking kernels need it)
	// reference is what runs on nowa.Serial() next to every round to
	// measure the host's speed at that moment; nil means the workload's
	// own kernels, which is the serial elision (and what defines T1/Ts).
	// serialRound is the nominal time of a reference round on the
	// reference host: the constant that turns a time relative to the
	// reference back into seconds (closedRun.scaled).
	reference   func(tiny bool) []apps.Benchmark
	serialRound time.Duration

	// open: Poisson arrivals at rate/s of the three-strand task, each
	// strand spinning spin rounds, through Submit.
	rate   float64
	spin   int
	svc    nowa.ServiceConfig
	client *nowa.ResiliencePolicy // nil: plain Submit + Wait
}

func (w *workload) closed() bool { return w.kernels != nil }

// serialElision reports whether the reference rounds are the workload's
// own kernels on nowa.Serial(): then T1/Ts is defined.
func (w *workload) serialElision() bool { return w.serialRound > 0 && w.reference == nil }

// scaleOf picks the input class: the tier-1 test runs everything tiny.
func scaleOf(tiny bool) apps.Scale {
	if tiny {
		return apps.Test
	}
	return apps.Bench
}

// workloads is the benchmark, in report order. The "why" strings are
// copied into BENCHMARK.json.
var workloads = []*workload{
	{
		name: "fj-fine",
		why:  "Leaf work is a few ns, so spawn/sync, deque push/pop and the join counter do most of the work: the paper's regime.",
		kernels: func(tiny bool) []apps.Benchmark {
			s := scaleOf(tiny)
			// integrate stays at test size: its bench input alone runs
			// ~1 s, which would leave the round measuring one kernel.
			return []apps.Benchmark{apps.NewFib(s), apps.NewNQueens(s), apps.NewIntegrate(apps.Test), apps.NewQuicksort(s)}
		},
		serialRound: 105 * time.Millisecond,
	},
	{
		name: "fj-coarse",
		why:  "Leaf work dominates and the scheduler only steals and hands out stacks: predicted flat for any spawn-path change.",
		kernels: func(tiny bool) []apps.Benchmark {
			s := scaleOf(tiny)
			return []apps.Benchmark{apps.NewMatmul(s), apps.NewLU(s), apps.NewHeat(s), apps.NewStrassen(s), apps.NewCholesky(s), apps.NewFFT(s)}
		},
		serialRound: 75 * time.Millisecond,
	},
	{
		name: "serve-low",
		why:  "Poisson 2000/s: submissions hardly ever overlap, so latency is wake, dispatch and run with nothing queued.",
		rate: 2000,
		spin: spinRounds,
		svc:  nowa.ServiceConfig{QueueDepth: 256, Policy: nowa.OverloadBlock},
	},
	{
		name: "serve-high",
		why:  "Poisson 12000/s keeps submissions overlapping: admission enqueue, dispatch and Submit contention set the latency.",
		rate: 12000,
		spin: spinRounds,
		svc:  nowa.ServiceConfig{QueueDepth: 256, Policy: nowa.OverloadBlock},
	},
	{
		name:   "serve-overload",
		why:    "Poisson 24000/s of an 8x task, 1.4x what a FailFast queue of 32 can serve, one retry: the admission layer's refuse path.",
		rate:   24000,
		spin:   8 * spinRounds,
		svc:    nowa.ServiceConfig{QueueDepth: 32, Policy: nowa.OverloadFailFast},
		client: &nowa.ResiliencePolicy{MaxAttempts: 2},
	},
	{
		name:    "block-pipeline",
		why:     "Every strand lives suspended: CQS enqueue/resume, wake queue, token handoff and the eager spawn path fj-fine never takes.",
		kernels: func(tiny bool) []apps.Benchmark { return blockapps.Blocking(scaleOf(tiny)) },
		eager:   true,
		// The blocking kernels have no serial elision (their strands wait
		// for one another), so an integer spin stands in as the reference.
		reference:   func(bool) []apps.Benchmark { return []apps.Benchmark{spinKernel{}} },
		serialRound: 8 * time.Millisecond,
	},
}

// spinKernel is the reference round of a workload without a serial
// elision: a fixed integer spin on one processor, about 8 ms on the
// reference host. It slows down with the processor share the host grants
// and is blind to the memory and floating-point state the fj kernels feel.
type spinKernel struct{}

func (spinKernel) Name() string        { return "spin" }
func (spinKernel) Description() string { return "fixed integer spin (host-speed reference)" }
func (spinKernel) PaperInput() string  { return "n/a" }
func (spinKernel) Prepare()            {}
func (spinKernel) Run(api.Ctx)         { spinSink = spin(1, 4_000_000) }
func (spinKernel) Verify() error       { return nil }

var spinSink uint64

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// config is one run of one workload.
type config struct {
	seed    int64
	seconds float64 // measuring time of the whole run
	trace   bool
	tiny    bool // test-sized inputs, one set-up, no validity gate
	outDir  string
	commit  string
}

// setups is how often a run sets up (runtime, inputs, warm-up) before it
// measures; setup_s is the median, so one slow start does not decide it.
func (c *config) setups() int {
	if c.tiny {
		return 1
	}
	return 7
}

// workers is the protagonist's size: GOMAXPROCS = workers = min(nproc, 4).
func workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// hostInfo stamps every report and result file.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host(commit string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// report is everything one run measured. The result line the driver reads
// is cut from it (see resultLine); the whole of it is written to
// <out>/<workload>.json for people.
type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     hostInfo `json:"host"`

	// Valid is false when the numbers are the host's or the generator's
	// rather than the program's: the hypervisor took more than a tenth of
	// the processor time away (StealShare), or the open-loop generator ran
	// late. It is advice to the reader and does not make a run incorrect:
	// the outputs were still checked.
	Valid      bool    `json:"valid"`
	StealShare float64 `json:"steal_share"`
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	// Refused counts arrivals a FailFast service turned away for good:
	// the policy working, so not failures, but operations the client did
	// not get (failed_share counts them).
	Refused    int64    `json:"refused,omitempty"`
	Violations []string `json:"violations,omitempty"`

	// Inputs states the input sizes; Samples the count behind p50_us,
	// Spread their inter-quartile distance over their median, and Tail
	// the highest percentile that count supports.
	Inputs  map[string]string `json:"inputs"`
	Samples int               `json:"samples"`
	Spread  float64           `json:"latency_spread"`
	Tail    string            `json:"tail,omitempty"`
	GenLag  *lagSummary       `json:"gen_lag,omitempty"`
	Stages  *stageCheck       `json:"stage_check,omitempty"`

	Values map[string]float64 `json:"values"`
}

// violate names one failed operation in the report and counts it.
func (r *report) violate(format string, args ...any) { r.violateN(1, format, args...) }

// violateN is violate for n operations that failed the same way.
func (r *report) violateN(n int, format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	r.Failed += int64(n)
}

// correct is the result line's verdict: outputs verified, accounting
// conserved, nothing leaked.
func (r *report) correct() bool { return r.Failed == 0 }

// invalid records why a run's numbers should not be read as the program's.
func (r *report) invalid(format string, args ...any) {
	r.Valid = false
	r.Violations = append(r.Violations, "invalid: "+fmt.Sprintf(format, args...))
}

// maxSteal is the share of wanted processor time the host may take away
// before a run is marked invalid.
const maxSteal = 0.1

func newReport(workload string, cfg config) *report {
	return &report{
		Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: host(cfg.commit), Valid: true,
		Inputs: map[string]string{}, Values: map[string]float64{},
	}
}

// runWorkload runs w once under cfg.
func runWorkload(w *workload, cfg config) *report {
	runtime.GOMAXPROCS(workers())
	rep := newReport(w.name, cfg)
	busy0, steal0 := hostCPU()
	if w.closed() {
		runClosed(w, cfg, rep)
	} else {
		runOpen(w, cfg, rep)
	}
	rep.Values["failed_share"] = ratio(float64(rep.Failed+rep.Refused), float64(rep.Attempted))
	rep.Values["rt.peak_rss_mb"] = peakRSSMB()
	if cfg.trace {
		_, _, _, ledgerFor := segments(cfg, w.serialElision())
		runLedger(ledgerFor, rep)
	}
	busy1, steal1 := hostCPU()
	rep.StealShare = ratio(steal1-steal0, busy1-busy0)
	if !cfg.tiny && rep.StealShare > maxSteal {
		rep.invalid("the host took %.0f%% of the processor time away", 100*rep.StealShare)
	}
	return rep
}

// segments splits a run's measuring time: an untraced run measures for
// all of it; a traced run measures untraced for a third (the reference
// its overhead is taken against), traced for a third, and spends the last
// third on the layer ledger (a tenth of the run on T1/Ts where defined).
func segments(cfg config, serial bool) (untraced, traced, t1ts, ledger time.Duration) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return total, 0, 0, 0
	}
	untraced, traced = total*3/10, total*3/10
	if serial {
		t1ts = total / 10
	}
	return untraced, traced, t1ts, total - untraced - traced - t1ts
}
