package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// layers are the program's modules in report order, plus "litmus" (the
// litmus program interpreter the model checker runs on), "other" (every
// remaining pmemspec/internal package) and "runtime" (samples with no
// module frame: GC workers, the scheduler, the benchmark's own code).
var layers = []string{
	"sim", "machine", "cache", "pmc", "ppath", "core", "fatomic", "osint",
	"mem", "workload", "harness", "mc", "litmus", "other", "runtime",
}

const modulePrefix = "pmemspec/internal/"

// layerOf maps a profiled function name to its layer, or "" when the
// function is not in a module package.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// stack is one profile sample: its frames innermost first, and its
// weight in samples.
type stack struct {
	frames []string
	weight int64
}

// foldStacks charges each sample to the innermost module frame on its
// stack, so runtime work (allocation, memclr, memmove) counts against the
// module that asked for it; samples with no module frame go to
// "runtime". The result maps every layer to its share of all samples.
func foldStacks(stacks []stack) map[string]float64 {
	charged := map[string]int64{}
	var total int64
	for _, s := range stacks {
		layer := "runtime"
		for _, fn := range s.frames {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		charged[layer] += s.weight
		total += s.weight
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(charged[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}

// parseProfile decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) into its sample stacks. Only the fields the fold needs
// are read: samples, locations with their inlined lines, functions and
// the string table.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct{ locs, values []uint64 }
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
	)
	err = fields(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, wire, v, data)
				case 2:
					s.values, err = appendUints(s.values, wire, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
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
			var id, name uint64
			err := fields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{weight: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which the encoder writes
// either one varint per field or packed into one length-delimited run.
func appendUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
