package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile layer attribution. runtime/pprof writes a gzipped
// profile.proto; this reads just the parts needed to find each
// sample's stack of function names, and buckets the sample by the Go
// package of its innermost frame in a named package.

// layerOfPackage maps a Go package path to its cpu.<layer> bucket.
func layerOfPackage(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "kshot/internal/"); ok {
		for _, l := range cpuLayers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	switch pkg {
	case "encoding/gob":
		return "encoding_gob"
	case "math/big":
		return "math_big"
	}
	return "other"
}

// funcPackage returns the package path of a symbol name such as
// "kshot/internal/mem.(*Physical).access" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// gcRoots are the runtime frames under which a runtime leaf counts as
// garbage-collector work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.GC", "runtime.gcStart", "runtime.markrootSpans",
}

// refFrame marks the benchmark's own reference slices, whose samples
// are left out of the shares.
const refFrame = "main.(*hostRef).slice"

// bucketOf attributes one sample, given its stack leaf first: runtime
// work under a collector entry point is runtime_gc; otherwise the
// innermost frame in a named package takes the sample, so a syscall
// or memclr is charged to the layer that made it. ok is false for a
// reference-slice sample.
func bucketOf(stack []string) (layer string, ok bool) {
	for _, fn := range stack {
		if strings.HasPrefix(fn, refFrame) {
			return "", false
		}
	}
	if len(stack) > 0 && funcPackage(stack[0]) == "runtime" {
		for _, fn := range stack {
			for _, r := range gcRoots {
				if fn == r {
					return "runtime_gc", true
				}
			}
		}
	}
	for _, fn := range stack {
		if l := layerOfPackage(funcPackage(fn)); l != "other" {
			return l, true
		}
	}
	return "other", true
}

// cpuShares returns, for every cpu.<layer> metric, the share of the
// profile's samples attributed to it.
func cpuShares(gz []byte) (map[string]float64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		if l, ok := bucketOf(s.stack); ok {
			counts[l] += s.count
			total += s.count
		}
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out["cpu."+l] = 0
		if total > 0 {
			out["cpu."+l] = float64(counts[l]) / float64(total)
		}
	}
	return out, nil
}

type profSample struct {
	stack []string // function names, leaf first
	count int64
}

// parseProfile decodes a gzipped profile.proto into samples.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			first := true
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					if vals := appendVarints(nil, w, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, profSample{stack: stack, count: s.count})
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
