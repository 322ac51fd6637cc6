package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/blocks"
	"repro/internal/obs"
)

// tracer records what a traced pass needs beyond its answer: spans around
// every call the benchmark makes into the program, kept in memory and
// written out at the end, and the obs.Registry handed to the program
// through runner.Options.Metrics. Every method is a no-op on a nil tracer,
// which is what untraced passes carry.
type tracer struct {
	reg   *obs.Registry
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. id is its 1-based index; parent 0 is the root.
// lane separates concurrent callers (the sweep's block workers).
type span struct {
	name       string
	id, parent int
	lane       int
	start, end time.Duration // since the tracer started
}

func newTracer() *tracer { return &tracer{reg: obs.NewRegistry(), t0: time.Now()} }

func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, lane: lane, start: now, end: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// wrapBlocks puts a span named "block" around every block a worker runs.
func (t *tracer) wrapBlocks(run blocks.RunFunc, parent, lane int) blocks.RunFunc {
	if t == nil {
		return run
	}
	return func(ctx context.Context, m *blocks.Manifest, b blocks.Block) (blocks.BlockOutput, error) {
		id := t.begin("block", parent, lane)
		defer t.end(id)
		return run(ctx, m, b)
	}
}

// durations returns the lengths, in seconds, of the closed spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto), one complete ("X") event per closed span.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.lane,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuByModule attributes the samples of a gzipped CPU profile to modules:
// each sample goes to the innermost frame in a repro/internal/<module>
// package (inlined frames included); samples with no such frame count as
// "runtime". It returns samples per module and the total.
func cpuByModule(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	const prefix = "repro/internal/"
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		mod := "runtime"
	frames:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if name := p.strings[p.functions[fn]]; strings.HasPrefix(name, prefix) {
					mod = name[len(prefix):]
					if i := strings.IndexAny(mod, "./"); i >= 0 {
						mod = mod[:i]
					}
					break frames
				}
			}
		}
		out[mod] += s.count
		total += s.count
	}
	return out, total, nil
}

// profile is the part of a pprof profile.proto cpuByModule reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name (string table index)
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	count     int64
}

// parseProfile decodes the fields of a profile.proto message that
// cpuByModule needs: Profile.sample (2), .location (4), .function (5) and
// .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			values := 0
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return eachVarint(v, sub, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return eachVarint(v, sub, func(x uint64) {
						if values == 0 {
							s.count = int64(x)
						}
						values++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (sub holds
// them) or not (v is the one value).
func eachVarint(v uint64, sub []byte, fn func(uint64)) error {
	if sub == nil {
		fn(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		sub = sub[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// profiled runs f under a runtime/pprof CPU profile and returns the
// gzipped profile.
func profiled(f func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := f()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// memDelta reports the bytes allocated and GC cycles completed while f ran.
func memDelta(f func() error) (allocBytes uint64, gcs uint32, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.NumGC - m0.NumGC, err
}
