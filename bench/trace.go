package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// spanNames lists every layer call the workloads wrap, as <module>.<call>.
// A traced run reports each one's call count and share of the child's
// wall time, zero where a workload never makes the call.
var spanNames = []string{
	"harness.fig7", "harness.table1", "harness.measure_dynamic", "harness.fig10",
	"sched.gen_trace", "sched.serve",
	"gen.generate", "gen.expected", "gen.check_device",
	"kernels.build", "kernels.verify",
	"preempt.new",
	"sim.new_device", "sim.golden_run", "sim.run_to_signal", "sim.preempt_save",
	"sim.resume_replay", "sim.finish",
	"snapshot.new_pool", "snapshot.capture", "snapshot.restore", "snapshot.refill", "snapshot.validate",
}

// cpuLayers are the packages the CPU profile is folded into:
// ctxback/internal/<name>, and the Go runtime.
var cpuLayers = []string{
	"sim", "core", "cfg", "liveness", "preempt", "kernels", "isa",
	"harness", "sched", "snapshot", "gen", "runtime",
}

// span is one layer call. Times are nanoseconds since the child started;
// Op is shared by every span of one measured op (or "setup").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's calls into the repository.
// Workloads call it from one goroutine, so it needs no locking. When off,
// do calls straight through.
type tracer struct {
	on    bool
	t0    time.Time
	op    string
	spans []span
	open  []int
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// run is do for a call that cannot fail.
func (t *tracer) run(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	id := t.begin(name)
	fn()
	t.end(id)
}

func (t *tracer) begin(name string) int {
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// spanTotals sums the calls and inclusive nanoseconds of each span name.
func spanTotals(spans []span) (calls, ns map[string]int64) {
	calls, ns = make(map[string]int64), make(map[string]int64)
	for _, s := range spans {
		calls[s.Name]++
		ns[s.Name] += s.End - s.Start
	}
	return calls, ns
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// foldProfile reads a gzipped pprof CPU profile and returns each cpuLayers
// package's share of all samples, attributing each sample to its leaf
// (innermost inlined) function: the flat column of `go tool pprof -top`
// summed per package.
func foldProfile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	flat := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		total += s.value
		if len(s.locs) == 0 {
			continue
		}
		if fn, ok := p.leaf[s.locs[0]]; ok && fn < uint64(len(p.names)) {
			flat[layerOf(p.names[fn])] += s.value
		}
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = float64(flat[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// layerOf maps a symbol such as "ctxback/internal/sim.(*Device).step" to
// its cpuLayers entry, or "" when it belongs to none.
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "ctxback/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		return name
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return ""
}

// profile is the part of a pprof profile.proto the fold needs.
type profile struct {
	samples []sample
	leaf    map[uint64]uint64 // location id -> innermost function's name index
	names   []string          // string table, indexed by function name index
}

type sample struct {
	locs  []uint64
	value int64 // the first sample value: the sample count
}

var errProfile = errors.New("malformed profile")

// parseProfile decodes the fields of profile.proto the fold reads:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{leaf: make(map[uint64]uint64)}
	locFunc := make(map[uint64]uint64) // location id -> function id
	funcName := make(map[uint64]uint64)
	err := pbFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			first := true
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return pbVarints(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbVarints(v, d, func(x uint64) {
						if first {
							s.value, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id, fn uint64
			seenLine := false
			err := pbFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil // later lines are the callers it was inlined into
					}
					seenLine = true
					return pbFields(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := pbFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			p.names = append(p.names, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fn := range locFunc {
		if name, ok := funcName[fn]; ok {
			p.leaf[loc] = name
		}
	}
	return p, nil
}

// pbFields walks one protobuf message, passing each field's number and
// either its varint/fixed value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints yields a repeated varint field, packed (data) or not (v).
func pbVarints(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			return errProfile
		}
		fn(x)
	}
	return nil
}
