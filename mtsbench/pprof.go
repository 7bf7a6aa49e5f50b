package main

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto), enough to split self time by mtsim package. The module
// has no dependencies, so the protobuf wire format is decoded by hand.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// layerOf maps an mtsim package path to the layer its self time counts
// toward. routing covers the protocol packages, core (MTS) and node.
func layerOf(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, "mtsim/internal/")
	if !ok {
		return ""
	}
	top, _, _ := strings.Cut(rest, "/")
	switch top {
	case "sim", "phy", "geo", "mobility", "mac", "tcp":
		return top
	case "routing", "core", "node":
		return "routing"
	}
	return "other"
}

// selfLayers are the layers whose self-time share the traced run
// reports.
var selfLayers = []string{"sim", "phy", "geo", "mobility", "mac", "routing", "tcp"}

// funcPackage returns the package path of a symbol name such as
// "mtsim/internal/phy.(*Channel).Transmit"; generic type arguments in
// brackets are ignored.
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// selfShares attributes every CPU sample to a layer and returns each
// layer's share of the samples, in percent. A sample counts toward the
// innermost mtsim frame on its stack, so standard-library and runtime
// frames (a sort, a map lookup, an allocation) count toward the mtsim
// code that called them. Samples whose innermost mtsim-or-benchmark frame
// is the benchmark's own code (package main) are left out of the total;
// samples with no such frame at all (background GC, the scheduler) count
// as "runtime".
func selfShares(prof []byte) (map[string]float64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	totals := map[string]int64{}
	var sum int64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.strings[p.funcNames[fn]]
				if strings.HasPrefix(name, "main.") {
					layer = "bench"
					break stack
				}
				if l := layerOf(funcPackage(name)); l != "" {
					layer = l
					break stack
				}
			}
		}
		if layer == "bench" {
			continue
		}
		totals[layer] += s.value
		sum += s.value
	}
	out := map[string]float64{}
	for _, l := range selfLayers {
		if sum > 0 {
			out[l] = 100 * float64(totals[l]) / float64(sum)
		} else {
			out[l] = 0
		}
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	strings   []string
	funcNames map[uint64]int64    // function id → string index
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	samples   []sample
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

var errTruncated = errors.New("pprof: truncated profile")

// pbuf is a protobuf wire-format reader.
type pbuf struct {
	b []byte
}

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads the next field: its number, wire type, and either its
// varint value or its length-delimited bytes.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	tag, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(tag>>3), int(tag&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = errors.New("pprof: unsupported wire type")
	}
	return num, wire, v, data, err
}

// uints appends a repeated varint field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{funcNames: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, _, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, d)
				case 2:
					vals, err = uints(vals, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("pprof: function name out of range")
		}
	}
	return p, nil
}
