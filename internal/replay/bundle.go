package replay

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Bundle file layout (little-endian):
//
//	magic "NOWAREPL2\n"                     10 bytes
//	meta length                             uint32
//	meta JSON                               <meta length> bytes
//	worker count                            uint32
//	per worker: dropped uint64, count uint32, count×uint32 packed events
//	external:   count uint32, count×uint32 packed events
//
// The meta block is JSON so a bundle is self-describing to a human with
// a hex dump; the event streams are packed words so a long capture stays
// compact (4 bytes per decision).

// bundleMagic identifies a repro bundle and its format version. The
// version moves whenever a number the event streams carry changes
// meaning — a chaos site ID, a Kind — so an older bundle is refused
// instead of replayed against shifted IDs.
const bundleMagic = "NOWAREPL2\n"

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

// WriteBundle serialises a captured log and its metadata.
func WriteBundle(w io.Writer, meta Meta, log *Log) error {
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("replay: encode meta: %w", err)
	}
	if _, err := io.WriteString(w, bundleMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(mb))); err != nil {
		return err
	}
	if _, err := w.Write(mb); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(log.PerWorker))); err != nil {
		return err
	}
	for wi, evs := range log.PerWorker {
		var dropped uint64
		if wi < len(log.Dropped) {
			dropped = log.Dropped[wi]
		}
		if err := binary.Write(w, binary.LittleEndian, dropped); err != nil {
			return err
		}
		if err := writeEvents(w, evs); err != nil {
			return err
		}
	}
	return writeEvents(w, log.External)
}

// writeEvents emits one packed event stream: count then words.
func writeEvents(w io.Writer, evs []Event) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(evs))); err != nil {
		return err
	}
	buf := make([]byte, 4*len(evs))
	for i, e := range evs {
		binary.LittleEndian.PutUint32(buf[4*i:], pack(e.Kind, e.Site, e.Arg))
	}
	_, err := w.Write(buf)
	return err
}

// ReadBundle parses a bundle written by WriteBundle.
func ReadBundle(r io.Reader) (Meta, *Log, error) {
	var meta Meta
	magic := make([]byte, len(bundleMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return meta, nil, fmt.Errorf("replay: read magic: %w", err)
	}
	if string(magic) != bundleMagic {
		if strings.HasPrefix(string(magic), "NOWAREPL") {
			return meta, nil, fmt.Errorf("replay: bundle format %s, this build reads %s only",
				strings.TrimSpace(string(magic)), strings.TrimSpace(bundleMagic))
		}
		return meta, nil, fmt.Errorf("replay: not a repro bundle (bad magic %q)", magic)
	}
	var mlen uint32
	if err := binary.Read(r, binary.LittleEndian, &mlen); err != nil {
		return meta, nil, err
	}
	const maxMeta = 1 << 20
	if mlen > maxMeta {
		return meta, nil, fmt.Errorf("replay: meta block too large (%d bytes)", mlen)
	}
	mb := make([]byte, mlen)
	if _, err := io.ReadFull(r, mb); err != nil {
		return meta, nil, err
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		return meta, nil, fmt.Errorf("replay: decode meta: %w", err)
	}
	var workers uint32
	if err := binary.Read(r, binary.LittleEndian, &workers); err != nil {
		return meta, nil, err
	}
	const maxWorkers = 1 << 16
	if workers == 0 || workers > maxWorkers {
		return meta, nil, fmt.Errorf("replay: implausible worker count %d", workers)
	}
	log := &Log{
		PerWorker: make([][]Event, workers),
		Dropped:   make([]uint64, workers),
	}
	for w := uint32(0); w < workers; w++ {
		if err := binary.Read(r, binary.LittleEndian, &log.Dropped[w]); err != nil {
			return meta, nil, err
		}
		evs, err := readEvents(r)
		if err != nil {
			return meta, nil, err
		}
		log.PerWorker[w] = evs
	}
	ext, err := readEvents(r)
	if err != nil {
		return meta, nil, err
	}
	log.External = ext
	return meta, log, nil
}

// readEvents parses one packed event stream.
func readEvents(r io.Reader) ([]Event, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	const maxEvents = 1 << 28 // 1 GiB of events; far past any real ring
	if n > maxEvents {
		return nil, fmt.Errorf("replay: implausible event count %d", n)
	}
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = unpack(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return evs, nil
}

// SaveBundle writes a bundle to a file.
func SaveBundle(path string, meta Meta, log *Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBundle(f, meta, log); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBundle reads a bundle from a file.
func LoadBundle(path string) (Meta, *Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	return ReadBundle(f)
}
