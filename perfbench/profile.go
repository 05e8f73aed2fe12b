package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// cpuByLabel sums a gzipped pprof CPU profile's sample time by the value of
// one pprof label; samples without the label count under "". Only the
// profile.proto fields it needs are decoded: Profile.sample_type (1),
// Profile.sample (2), Profile.string_table (6); Sample.value (2),
// Sample.label (3); Label.key (1), Label.str (2); ValueType.type (1).
func cpuByLabel(gz []byte, label string) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		values []int64
		labels map[int64]int64 // key string index → value string index
	}
	var strs []string
	var types []int64 // sample_type type string indices
	var samples []sample
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 1 && wire == 2:
			return eachField(b, func(f, w int, v uint64, _ []byte) error {
				if f == 1 && w == 0 {
					types = append(types, int64(v))
				}
				return nil
			})
		case field == 2 && wire == 2:
			s := sample{labels: map[int64]int64{}}
			err := eachField(b, func(f, w int, v uint64, bb []byte) error {
				switch {
				case f == 2 && w == 0:
					s.values = append(s.values, int64(v))
				case f == 2 && w == 2:
					return eachVarint(bb, func(x uint64) { s.values = append(s.values, int64(x)) })
				case f == 3 && w == 2:
					var key, str int64
					err := eachField(bb, func(lf, lw int, lv uint64, _ []byte) error {
						if lw == 0 && lf == 1 {
							key = int64(lv)
						} else if lw == 0 && lf == 2 {
							str = int64(lv)
						}
						return nil
					})
					s.labels[key] = str
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case field == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := map[string]time.Duration{}
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			continue
		}
		val := ""
		for k, v := range s.labels {
			if str(k) == label {
				val = str(v)
			}
		}
		out[val] += time.Duration(s.values[cpuIdx])
	}
	return out, nil
}

// eachField walks a protobuf message, calling f with each field number and
// wire type, and the varint value (wire 0) or bytes (wire 2). Fixed-width
// fields are skipped.
func eachField(b []byte, f func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint decodes a packed repeated varint field.
func eachVarint(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(v)
		b = b[n:]
	}
	return nil
}
