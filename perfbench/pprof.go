package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// profilePackages are the packages whose flat CPU share is reported; the
// rest of the profile is "other".
var profilePackages = []string{"cpu", "workload", "rng", "math", "hierarchy", "cache", "tlb", "bpred", "core", "llc", "dram", "sim", "serve", "telemetry", "runtime"}

// profileShares CPU-profiles fn and returns each package's flat share of
// the samples.
func profileShares(dir string, fn func() error) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	fnErr := fn()
	pprof.StopCPUProfile()
	if fnErr != nil {
		return nil, fnErr
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return fileShares(path)
}

// fileShares reads pprof CPU profiles and attributes each sample's value
// to the package of its leaf function.
func fileShares(paths ...string) (map[string]float64, error) {
	flat := map[string]float64{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := flatByFunction(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for fn, v := range f {
			flat[fn] += v
		}
	}
	shares := map[string]float64{"other": 0}
	for _, p := range profilePackages {
		shares[p] = 0
	}
	var total float64
	for fn, v := range flat {
		total += v
		shares[packageOf(fn)] += v
	}
	if total == 0 {
		return nil, fmt.Errorf("%s: profiles hold no samples", strings.Join(paths, ", "))
	}
	for p := range shares {
		shares[p] /= total
	}
	return shares, nil
}

// packageOf maps a function symbol such as
// "nucasim/internal/cpu.(*Core).issue" to a reported package name.
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "runtime/internal/") {
		return "runtime"
	}
	name := fn[strings.LastIndex(fn, "/")+1:]
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	if strings.HasPrefix(fn, "nucasim/internal/") || name == "runtime" || name == "math" {
		for _, p := range profilePackages {
			if p == name {
				return p
			}
		}
	}
	return "other"
}

// flatByFunction decodes the gzipped profile.proto a Go CPU profile is
// and sums each sample's last value (CPU time) by its leaf function: the
// innermost inlined frame of the sample's first location.
func flatByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var samples []sample
	leafFunc := map[uint64]uint64{} // location id → innermost function id
	funcName := map[uint64]int64{}  // function id → string index
	var strs []string

	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids := varints(v, b)
					if len(ids) > 0 && s.loc == 0 {
						s.loc = ids[0]
					}
				case 2:
					if vals := varints(v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: the first is the innermost inlined call
					if fn == 0 {
						return fields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := map[string]float64{}
	for _, s := range samples {
		idx := funcName[leafFunc[s.loc]]
		name := "unknown"
		if idx > 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		flat[name] += float64(s.value)
	}
	return flat, nil
}

// fields walks the top-level fields of one protobuf message, passing
// varint fields as v and length-delimited fields as b.
func fields(msg []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("malformed profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("malformed profile: bad varint")
			}
			msg = msg[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("malformed profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := visit(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("malformed profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("malformed profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("malformed profile: wire type %d", wire)
		}
	}
	return nil
}

// varints returns a repeated integer field's values, packed (b) or not (v).
func varints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
