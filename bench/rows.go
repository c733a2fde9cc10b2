package main

import (
	"fmt"
	"strconv"

	"tpcxiot/internal/kvp"
	"tpcxiot/internal/workload"
)

// baseTS is the timestamp of step 0 of the generated readings, on a boundary
// of the engine's default 5-minute compaction window.
const baseTS int64 = 1_700_000_100_000

// stepMS is the spacing of one sensor's readings: the benchmark's 1 Hz.
const stepMS int64 = 1_000

// rowMaker makes kvp-format 1 KiB sensor readings from a seed alone: the
// reading of (substation, sensor, step) is a pure function, so the oracle and
// the post-restart check recompute a row instead of remembering it.
type rowMaker struct {
	seed    uint64
	padding []byte
}

func newRowMaker(seed uint64) *rowMaker {
	m := &rowMaker{seed: seed, padding: make([]byte, 2*kvp.PairSize)}
	x := seed
	for i := range m.padding {
		x = mix(x + uint64(i))
		m.padding[i] = 'a' + byte(x%26)
	}
	return m
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (m *rowMaker) hash(sub, sensor int, step int64) uint64 {
	return mix(m.seed ^ mix(uint64(sub)<<40^uint64(sensor)<<20^uint64(step)))
}

// reading is the sensor value at step, a two-decimal number in [0, 1000).
func (m *rowMaker) reading(sub, sensor int, step int64) float64 {
	return float64(m.hash(sub, sensor, step)%100_000) / 100
}

func sensorName(i int) string { return fmt.Sprintf("pmu-%03d", i) }

func (m *rowMaker) key(sub, sensor int, step int64) kvp.Key {
	return kvp.Key{
		Substation: workload.SubstationName(sub),
		Sensor:     sensorName(sensor),
		Timestamp:  baseTS + step*stepMS,
	}
}

// row encodes the reading of (sub, sensor, step) as a full 1 KiB pair.
func (m *rowMaker) row(sub, sensor int, step int64) (key, value []byte, err error) {
	k := m.key(sub, sensor, step)
	reading := strconv.FormatFloat(m.reading(sub, sensor, step), 'f', 2, 64)
	pad, err := kvp.PaddingFor(k, reading, "volt")
	if err != nil {
		return nil, nil, err
	}
	off := int(m.hash(sub, sensor, step) >> 32 % kvp.PairSize)
	v := kvp.Value{Reading: reading, Unit: "volt", Padding: m.padding[off : off+pad]}
	return k.Encode(), v.Encode(), nil
}
