package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark needs only each sample's stack of function names and
// its CPU nanoseconds, so it decodes those fields by hand instead of
// taking a dependency on a profile library.

// profSample is one profile sample: its stack, leaf first, with
// inlined frames expanded, and the CPU time it stands for.
type profSample struct {
	stack []string
	cpuNs int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		strs      []string
		types     [][2]uint64 // sample_type: (type, unit) string indexes
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> name string index
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s sample
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return pbFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, vt := range types {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{cpuNs: int64(s.vals[cpu])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				ps.stack = append(ps.stack, str(funcNames[f]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendPacked appends a repeated integer field's value(s): v for the
// unpacked encoding, the varints packed in b otherwise.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// pbFields walks a protobuf message, calling fn with each field's
// number and either its integer value (varint and fixed wire types) or
// its bytes (length-delimited; b is nil for the other wire types).
func pbFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := pbVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)] // never nil, even when empty
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes one varint, returning its length (0 if truncated).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerPkgs names the program's layers by package path prefix. A
// sample belongs to the layer of its leaf frame.
var layerPkgs = []struct{ pkg, metric string }{
	{"repro/internal/cache", "cache.self_s"},
	{"repro/internal/machine", "machine.self_s"},
	{"repro/internal/kernel", "kernel.self_s"},
	{"repro/internal/jvm", "jvm.self_s"},
	{"repro/internal/heap", "heap.self_s"},
	{"repro/internal/workloads", "workloads.self_s"},
	{"repro/internal/objmodel", "objmodel.self_s"},
	{"repro/internal/memdev", "memdev.self_s"},
	{"repro/internal/policy", "policy.self_s"},
	{"repro/internal/core", "core.self_s"},
	{"repro/internal/trace", "trace.self_s"},
	{"repro/internal/estimate", "estimate.self_s"},
	{"repro/internal/autotune", "autotune.self_s"},
	{"repro/internal/store", "store.self_s"},
	{"repro/internal/serve", "serve.self_s"},
	{"repro/internal/obs", "obs.self_s"},
	{"encoding/json", "json.self_s"},
}

// profileMetrics lists every metric layerOf can return, so a run
// prints each of them even when it saw no samples there.
func profileMetrics() []string {
	out := []string{"runtime.memmove_s", "runtime.memclr_s", "runtime.malloc_s",
		"runtime.gc_s", "runtime.map_s", "bench.self_s", "other.self_s"}
	for _, l := range layerPkgs {
		out = append(out, l.metric)
	}
	return out
}

// layerOf attributes one sample (stack leaf first) to the metric that
// owns its CPU time:
//   - bench.self_s when the nearest caller outside the standard
//     library and the runtime is the benchmark itself (package main),
//     so the benchmark's own output checks are not charged to the
//     program's layers; the hybridmem facade is looked through;
//   - for a leaf in the runtime: runtime.gc_s for any sample under a
//     garbage-collector frame, runtime.memclr_s and runtime.memmove_s
//     by leaf, then runtime.map_s when the runtime frames below the
//     first caller include map access, hashing or growth, then
//     runtime.malloc_s when they include mallocgc;
//   - otherwise the layer of the leaf frame's package (layerPkgs);
//   - other.self_s for everything else.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other.self_s"
	}
	for _, f := range stack {
		pkg := funcPkg(f)
		if pkg == "main" {
			return "bench.self_s"
		}
		if strings.HasPrefix(pkg, "repro/") {
			break
		}
	}
	leaf := stack[0]
	if !isRuntime(funcPkg(leaf)) {
		pkg := funcPkg(leaf)
		for _, l := range layerPkgs {
			if pkg == l.pkg || strings.HasPrefix(pkg, l.pkg+"/") {
				return l.metric
			}
		}
		return "other.self_s"
	}
	for _, f := range stack {
		if isGCFrame(f) {
			return "runtime.gc_s"
		}
	}
	switch {
	case strings.HasPrefix(leaf, "runtime.memclr"):
		return "runtime.memclr_s"
	case strings.HasPrefix(leaf, "runtime.memmove"):
		return "runtime.memmove_s"
	}
	rt := stack
	for i, f := range stack {
		if !isRuntime(funcPkg(f)) {
			rt = stack[:i]
			break
		}
	}
	for _, f := range rt {
		if funcPkg(f) == "internal/runtime/maps" || strings.HasPrefix(f, "runtime.map") ||
			strings.Contains(f, "hash") {
			return "runtime.map_s"
		}
	}
	for _, f := range rt {
		if strings.HasPrefix(f, "runtime.mallocgc") {
			return "runtime.malloc_s"
		}
	}
	return "other.self_s"
}

// isGCFrame reports a frame that only runs on behalf of the garbage
// collector: background and assist marking, sweeping, scavenging and
// write-barrier buffer flushes.
func isGCFrame(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.wbBufFlush", "runtime.sweepone"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// isRuntime reports the runtime's packages. Assembly routines without
// a package (aeshashbody, memeqbody) and compiler-generated type
// functions (type:.eq.T) belong to it too.
func isRuntime(pkg string) bool {
	return pkg == "" || pkg == "runtime" || strings.HasPrefix(pkg, "type:") || strings.HasPrefix(pkg, "internal/runtime/") ||
		strings.HasPrefix(pkg, "runtime/internal/")
}

// funcPkg returns the package path of a Go symbol name such as
// "repro/internal/cache.(*Cache).Access" or
// "repro/internal/fabric/jobs.(*Group[go.shape.int]).Do", and "" for
// a symbol without one.
func funcPkg(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return ""
}

// attribute sums the samples' CPU seconds by layerOf.
func attribute(samples []profSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.cpuNs) / 1e9
	}
	return out
}
