package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans of one submission (or one round) share ID; Parent is the
// index, in the file's span list, of the span that caused this one.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int    `json:"parent"` // -1: a root span
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// sample is one tick of the 1 ms sampler.
type sample struct {
	TNs        int64 `json:"t_ns"`
	Queued     int   `json:"queued"`
	InFlight   int   `json:"inflight"`
	Goroutines int   `json:"goroutines"`
}

// traceFile is what a traced run leaves in <out>/<workload>.trace.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Host     hostInfo `json:"host"`
	Clock    string   `json:"clock"`
	// Truncated is set when the run held more submissions than
	// traceFileIDs; the metrics always use all of them.
	Truncated bool     `json:"truncated"`
	Spans     []span   `json:"spans"`
	Samples   []sample `json:"samples"`
}

// traceFileIDs caps how many submissions (or rounds) are written out, so
// a 24 000/s run does not leave a file of hundreds of megabytes.
const traceFileIDs = 5000

func writeTrace(cfg config, rep *report, spans []span, truncated bool, samples []sample) error {
	tf := traceFile{
		Workload: rep.Workload, Seed: rep.Seed, Host: rep.Host,
		Clock:     "nanoseconds since process start (monotonic)",
		Truncated: truncated, Spans: spans, Samples: samples,
	}
	return writeJSON(filepath.Join(cfg.outDir, rep.Workload+".trace.json"), tf)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sampler reads the public snapshots once a millisecond while a traced
// segment runs. It is a goroutine of the harness, so what it costs is part
// of trace.overhead_share.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []sample
}

// startSampler samples until Stop. depth, when non-nil, reports the
// service's queued and in-flight counts.
func startSampler(depth func() (queued, inflight int)) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				sm := sample{TNs: now(), Goroutines: runtime.NumGoroutine()}
				if depth != nil {
					sm.Queued, sm.InFlight = depth()
				}
				s.samples = append(s.samples, sm)
			}
		}
	}()
	return s
}

// Stop ends the sampler, waits for it and returns what it saw.
func (s *sampler) Stop() []sample {
	close(s.stop)
	<-s.done
	return s.samples
}

// summariseSamples folds the samples into the per-layer sampler metrics.
func summariseSamples(samples []sample, vals map[string]float64) {
	depths := make([]float64, 0, len(samples))
	for _, sm := range samples {
		depths = append(depths, float64(sm.Queued))
		vals["service.queue_depth_max"] = max(vals["service.queue_depth_max"], float64(sm.Queued))
		vals["service.inflight_max"] = max(vals["service.inflight_max"], float64(sm.InFlight))
		vals["rt.goroutines_peak"] = max(vals["rt.goroutines_peak"], float64(sm.Goroutines))
	}
	vals["service.queue_depth_p50"] = median(depths)
}
