package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// epoch anchors every timestamp of a run: stamps are monotonic
// nanoseconds since process start, so spans of different layers compare.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func us(ns int64) float64 { return float64(ns) / 1e3 }

// finite maps the values JSON cannot carry to 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's resident high-water mark (VmHWM); 0
// where /proc does not offer it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// hostCPU reads the host-wide processor accounting from /proc/stat: the
// jiffies spent not idle, and those of them the hypervisor gave to someone
// else while this machine wanted to run. Zeroes where /proc has no such line.
func hostCPU() (busy, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i != 3 && i != 4 { // not idle, not iowait
			busy += v
		}
		if i == 7 {
			steal = v
		}
	}
	return busy, steal
}

// heapMark is the allocator and collector state at one instant.
type heapMark struct {
	mallocs uint64
	pauseNs uint64
}

func markHeap() heapMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapMark{mallocs: m.Mallocs, pauseNs: m.PauseTotalNs}
}
