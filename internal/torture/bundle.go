package torture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"nowa/internal/chaos"
)

// A repro bundle is one indented JSON document, {"meta": …}: the
// failing trial's Meta, its configuration and seeds, which is all a
// rerun needs. The "events" tails older bundles carried beside it are
// ignored on loading.
type bundle struct {
	Meta Meta `json:"meta"`
}

// Meta describes one trial, and is what a repro bundle holds: everything
// needed to rebuild the configuration plus a human-readable account of
// the failure the bundle reproduces.
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
	Class string       `json:"class,omitempty"`
	Chaos *chaos.Chaos `json:"chaos,omitempty"`

	// Stall-recovery arming (Config.StallThreshold); zero means off.
	StallThresholdUS int64 `json:"stall_threshold_us,omitempty"`

	// Failure describes the invariant violation this bundle captured.
	Failure string `json:"failure,omitempty"`
}

// save writes m's repro bundle to path.
func save(path string, m Meta) error {
	raw, err := json.MarshalIndent(bundle{m}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o666)
}

// load reads the repro bundle at path. A binary bundle of the
// schedule-log formats that came before is refused by name.
func load(path string) (Meta, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, err
	}
	if bytes.HasPrefix(raw, []byte("NOWAREPL")) {
		magic, _, _ := bytes.Cut(raw, []byte("\n"))
		return Meta{}, fmt.Errorf("%s: %s is a binary schedule-log bundle; this build reads JSON bundles only", path, magic)
	}
	var b bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return Meta{}, fmt.Errorf("%s: not a repro bundle: %w", path, err)
	}
	return b.Meta, nil
}
