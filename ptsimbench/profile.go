package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers maps profiled function-name prefixes to the layer a CPU
// sample is charged to. A sample goes to the innermost frame of its stack
// that matches a rule (first matching rule wins), so runtime and library
// code counts toward the layer that called it: a mallocgc inside the DRAM
// model is DRAM time, a json.Marshal inside a member handler is net time.
// Samples with no matching frame (GC workers, the scheduler, the
// benchmark itself) count toward no layer, so the shares sum to ≤ 1.
var cpuLayers = []struct{ prefix, layer string }{
	{"repro/internal/sim.", "sim.queue_cpu_share"},
	{"repro/internal/togsim.(*StdFabric)", "togsim.fabric_cpu_share"},
	{"repro/internal/togsim.(*proxyFabric)", "togsim.fabric_cpu_share"},
	{"repro/internal/togsim.", "togsim.core_cpu_share"},
	{"repro/internal/tog.", "togsim.core_cpu_share"},
	{"repro/internal/dram.", "dram.cpu_share"},
	{"repro/internal/noc.", "noc.cpu_share"},
	{"repro/internal/topo.", "topo.cpu_share"},
	{"repro/internal/fleet.", "fleet.cpu_share"},
	{"repro/internal/service", "service.cpu_share"},
	{"repro/internal/compiler.", "compiler.cpu_share"},
	{"repro/internal/timingsim.", "compiler.cpu_share"},
	{"repro/internal/codegen.", "compiler.cpu_share"},
	{"repro/internal/systolic.", "compiler.cpu_share"},
	{"repro/internal/isa.", "compiler.cpu_share"},
	{"net/http.", "net.cpu_share"},
	{"net.", "net.cpu_share"},
	{"net/textproto.", "net.cpu_share"},
	{"net/url.", "net.cpu_share"},
	{"encoding/json.", "net.cpu_share"},
}

// cpuLayerNames lists every share metric the rules report, in a fixed
// order (a layer with no samples reports 0).
func cpuLayerNames() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range cpuLayers {
		if !seen[r.layer] {
			seen[r.layer] = true
			out = append(out, r.layer)
		}
	}
	return out
}

func layerOf(fn string) (string, bool) {
	for _, r := range cpuLayers {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer, true
		}
	}
	return "", false
}

var profBuf bytes.Buffer

func startProfile() error {
	profBuf.Reset()
	if err := pprof.StartCPUProfile(&profBuf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

// stopProfile ends the CPU profile and returns each layer's share metric
// (its part of the sampled CPU time), plus the sample count.
func stopProfile() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	return cpuShares(profBuf.Bytes())
}

// cpuShares decodes a gzipped pprof profile and buckets its CPU time by
// layer.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for _, l := range cpuLayerNames() {
		shares[l] = 0
	}
	var total float64
	for _, s := range p.samples {
		total += s.value
		if l, ok := p.layerOfStack(s.locs); ok {
			shares[l] += s.value
		}
	}
	for l := range shares {
		shares[l] = ratio(shares[l], total)
	}
	return shares, len(p.samples), nil
}

// The decoder below reads just the parts of profile.proto the bucketing
// needs: samples (location IDs, values), locations (inlined lines, leaf
// first), functions, and the string table.

type profSample struct {
	locs  []uint64
	value float64 // the last sample value: CPU nanoseconds
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location -> function IDs, innermost first
	funcs   map[uint64]int64    // function -> name string index
	strs    []string
}

func (p *profile) layerOfStack(locs []uint64) (string, bool) {
	for _, loc := range locs {
		for _, fn := range p.locs[loc] {
			idx := p.funcs[fn]
			if idx < 0 || idx >= int64(len(p.strs)) {
				continue
			}
			if l, ok := layerOf(p.strs[idx]); ok {
				return l, true
			}
		}
	}
	return "", false
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendInts(s.locs, wire, v, b)
				case 2:
					vals = appendInts(vals, wire, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = float64(int64(vals[len(vals)-1]))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// appendInts appends a repeated integer field, packed or not.
func appendInts(dst []uint64, wire int, v uint64, b []byte) []uint64 {
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

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling f with each field's number
// and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
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
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
