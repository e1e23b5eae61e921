package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// suiteResult is one pass over every workload: the result file -repeat
// writes and the reference run commits under benchmark/results/.
type suiteResult struct {
	Host      hostInfo              `json:"host"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Untraced  map[string]resultLine `json:"untraced"`
	Traced    map[string]resultLine `json:"traced,omitempty"`
	AllPassed bool                  `json:"all_passed"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runChild runs one workload in a process of its own (a fresh heap, pool
// and scheduler per workload) and parses its result line.
func runChild(cfg config, name string, trace bool) (resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		fmt.Sprintf("-trace=%v", trace), "-out", cfg.outDir, "-commit", cfg.commit)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v): %w", name, runErr, err)
	}
	return line, nil
}

// runPass runs every workload once (and once more traced, when asked).
func runPass(cfg config) suiteResult {
	res := suiteResult{Host: host(cfg.commit), Seed: cfg.seed, Seconds: cfg.seconds,
		Untraced: map[string]resultLine{}, AllPassed: true}
	if cfg.trace {
		res.Traced = map[string]resultLine{}
	}
	run := func(into map[string]resultLine, name string, trace bool) {
		line, err := runChild(cfg, name, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		if err != nil || !line.Correct {
			res.AllPassed = false
		}
		into[name] = line
	}
	for _, w := range workloads {
		run(res.Untraced, w.name, false)
		if cfg.trace {
			run(res.Traced, w.name, true)
		}
	}
	return res
}

// runSuite is the no-workload mode. It prints every metric of every
// workload as JSON and returns the exit code: non-zero when a workload
// failed or, under -repeat, when two passes of the same build disagree by
// more than a metric's bound.
func runSuite(cfg config, repeat bool) int {
	code := 0
	first := runPass(cfg)
	passes := []suiteResult{first}
	if repeat {
		second := cfg
		second.trace = false
		passes = append(passes, runPass(second))
	}
	for i, p := range passes {
		if !p.AllPassed {
			code = 1
		}
		if err := writeJSON(filepath.Join(cfg.outDir, fmt.Sprintf("suite-%d.json", i+1)), p); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	if repeat && !compare(passes[0], passes[1]) {
		code = 1
	}
	data, err := json.MarshalIndent(first, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(data))
	return code
}

// compare prints, per end-to-end metric and workload, both passes' values,
// their relative difference and the bound, and reports whether every
// difference is within its bound.
func compare(a, b suiteResult) bool {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat needs the bounds:", err)
		return false
	}
	ok := true
	fmt.Fprintf(os.Stderr, "\n%-16s %-12s %14s %14s %8s %8s\n", "workload", "metric", "pass 1", "pass 2", "diff", "bound")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			v1, v2 := a.Untraced[w.name].Metrics[m.Name].Value, b.Untraced[w.name].Metrics[m.Name].Value
			diff, verdict := relDiff(v1, v2), ""
			if diff > m.Bound {
				ok, verdict = false, "  EXCEEDS"
			}
			fmt.Fprintf(os.Stderr, "%-16s %-12s %14.4f %14.4f %7.1f%% %7.1f%%%s\n",
				w.name, m.Name, v1, v2, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}
