package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Bundle is a repro bundle: one JSON document holding the trial's Meta —
// the configuration and seeds, which is all a rerun needs — and, for the
// reader, the newest events of each stream of the failing run.
type Bundle struct {
	Meta Meta `json:"meta"`
	// Events holds each worker stream's newest events as FormatEvents
	// text, the external stream last.
	Events []string `json:"events,omitempty"`
}

// bundleEvents is how many of each stream's newest events a bundle keeps.
const bundleEvents = 64

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

// NewBundle describes a failing trial: its meta plus, when rec is
// non-nil, the newest events of each of rec's streams.
func NewBundle(meta Meta, rec *Recorder) Bundle {
	b := Bundle{Meta: meta}
	if rec != nil {
		for w := 0; w <= rec.Workers(); w++ {
			b.Events = append(b.Events, FormatEvents(rec.LastEvents(w, bundleEvents)))
		}
	}
	return b
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
