// Package replay declares what reproduces a run: the chaos injections
// (Chaos, the table of sites and the per-(slot, site) Streams they roll
// on) and the repro bundle that carries a failing trial's Meta.
//
// A run is reproduced from its seeds, not from a log: the victim streams
// and the chaos streams are functions of the configuration's seeds, so
// rerunning a bundle's Meta replays a single-worker schedule exactly and
// gives a multi-worker one the same draws at every site, whatever the OS
// interleaving. To read what a rerun did, run it under runtime/trace
// (nowa-torture -replay <bundle> -trace <file>) and open the trace with
// go tool trace: the scheduler emits its strand regions, token logs and
// run and submission tasks there, and its counters say how often each
// decision was taken.
package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Bundle is a repro bundle: one JSON document holding the trial's Meta —
// the configuration and seeds, which is all a rerun needs. The "events"
// tails older bundles carried beside it are ignored on reading.
type Bundle struct {
	Meta Meta `json:"meta"`
}

// Meta is the bundle's self-describing header: everything needed to
// rebuild the failing configuration plus a human-readable account of the
// failure the bundle reproduces.
type Meta struct {
	Tool    string `json:"tool"`
	Kernel  string `json:"kernel,omitempty"`
	Scale   string `json:"scale,omitempty"`
	Variant string `json:"variant"`
	Workers int    `json:"workers"`
	Seed    int64  `json:"seed"`

	TimeoutMS  int64 `json:"timeout_ms,omitempty"`
	SpawnEager bool  `json:"spawn_eager,omitempty"`

	// Class names the torture chaos class the trial was drawn from. A
	// label only: everything the class forces is spelled out in the
	// fields around it, so a bundle without it rebuilds the same run.
	Class string `json:"class,omitempty"`
	Chaos *Chaos `json:"chaos,omitempty"`

	// Stall-recovery arming (Config.StallThreshold); zero means off.
	StallThresholdUS int64 `json:"stall_threshold_us,omitempty"`

	// Failure describes the invariant violation this bundle captured.
	Failure string `json:"failure,omitempty"`
}

// WriteBundle writes b as indented JSON.
func WriteBundle(w io.Writer, b Bundle) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBundle parses a bundle written by WriteBundle. A binary bundle of
// the schedule-log formats that came before is refused by name.
func ReadBundle(r io.Reader) (Bundle, error) {
	var b Bundle
	raw, err := io.ReadAll(r)
	if err != nil {
		return b, err
	}
	if bytes.HasPrefix(raw, []byte("NOWAREPL")) {
		magic, _, _ := bytes.Cut(raw, []byte("\n"))
		return b, fmt.Errorf("replay: %s is a binary schedule-log bundle; this build reads JSON bundles only", magic)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("replay: not a repro bundle: %w", err)
	}
	return b, nil
}

// SaveBundle writes a bundle to a file.
func SaveBundle(path string, b Bundle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBundle(f, b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBundle reads a bundle from a file.
func LoadBundle(path string) (Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return Bundle{}, err
	}
	defer f.Close()
	return ReadBundle(f)
}
