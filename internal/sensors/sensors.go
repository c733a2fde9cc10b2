// Package sensors models the instrumentation of a power substation.
//
// TPCx-IoT fixes each simulated substation at 200 sensors. The paper's use
// case (Section III-A, Figure 3) names the sensor families found in real
// power substations — phasor measurement units, load-tap-changer gassing
// sensors, metal-insulator-semiconductor gas sensors, and leakage-current
// sensors — and this package provides a deterministic catalogue of 200
// concrete sensors built from those families, each with a realistic value
// range, unit, and sampling behaviour.
package sensors

import (
	"fmt"
	"strconv"

	"tpcxiot/internal/gen"
)

// PerSubstation is the number of sensors in every simulated substation,
// fixed by the TPCx-IoT specification.
const PerSubstation = 200

// Family describes one class of substation instrumentation.
type Family struct {
	// Name is the short family identifier used in sensor keys.
	Name string
	// Description says what the physical sensor measures.
	Description string
	// Unit is the measurement unit reported with every reading
	// (4-34 characters per the kvp specification).
	Unit string
	// Min and Max bound the nominal reading range.
	Min, Max float64
	// Jitter is the standard deviation of reading-to-reading movement as a
	// fraction of the range; readings follow a mean-reverting walk.
	Jitter float64
	// TypicalRate is the sensor's natural sampling rate in samples/second,
	// documentation of the real-world source (PMUs: 60-121 sps; vibration:
	// thousands of sps). The benchmark drives sensors as fast as the gateway
	// accepts, so this is informational.
	TypicalRate float64
}

// Families is the catalogue of sensor classes, drawn from the substation
// equipment the paper describes.
var Families = []Family{
	{
		Name:        "pmu-freq",
		Description: "phasor measurement unit: grid frequency via synchrophasors",
		Unit:        "hertz",
		Min:         59.90, Max: 60.10, Jitter: 0.02, TypicalRate: 60,
	},
	{
		Name:        "pmu-vmag",
		Description: "phasor measurement unit: positive-sequence voltage magnitude",
		Unit:        "kilovolt",
		Min:         110, Max: 125, Jitter: 0.01, TypicalRate: 60,
	},
	{
		Name:        "pmu-angle",
		Description: "phasor measurement unit: voltage phase angle",
		Unit:        "degree",
		Min:         -180, Max: 180, Jitter: 0.05, TypicalRate: 121,
	},
	{
		Name:        "ltc-gas",
		Description: "load tap changer gassing sensor: dissolved combustible gas",
		Unit:        "ppm combustible",
		Min:         0, Max: 2000, Jitter: 0.005, TypicalRate: 1,
	},
	{
		Name:        "mis-h2",
		Description: "metal-insulator-semiconductor gas sensor: hydrogen level",
		Unit:        "ppm hydrogen",
		Min:         0, Max: 1500, Jitter: 0.004, TypicalRate: 1,
	},
	{
		Name:        "mis-c2h2",
		Description: "metal-insulator-semiconductor gas sensor: acetylene level",
		Unit:        "ppm acetylene",
		Min:         0, Max: 35, Jitter: 0.004, TypicalRate: 1,
	},
	{
		Name:        "leakage",
		Description: "leakage current sensor: current leakage to earth",
		Unit:        "milliampere",
		Min:         0, Max: 500, Jitter: 0.01, TypicalRate: 10,
	},
	{
		Name:        "xfmr-temp",
		Description: "transformer top-oil temperature",
		Unit:        "degree celsius",
		Min:         20, Max: 110, Jitter: 0.002, TypicalRate: 1,
	},
	{
		Name:        "xfmr-load",
		Description: "transformer load current",
		Unit:        "ampere",
		Min:         0, Max: 3000, Jitter: 0.01, TypicalRate: 10,
	},
	{
		Name:        "breaker-sf6",
		Description: "circuit breaker SF6 gas density",
		Unit:        "kilopascal",
		Min:         500, Max: 700, Jitter: 0.001, TypicalRate: 1,
	},
	{
		Name:        "bus-vibration",
		Description: "busbar vibration for predictive maintenance",
		Unit:        "millimetre per second",
		Min:         0, Max: 25, Jitter: 0.05, TypicalRate: 2000,
	},
	{
		Name:        "ambient-temp",
		Description: "switchyard ambient temperature",
		Unit:        "degree celsius",
		Min:         -30, Max: 50, Jitter: 0.001, TypicalRate: 0.1,
	},
}

// Sensor is one concrete instrument within a substation.
type Sensor struct {
	// Key uniquely identifies the sensor within its substation, e.g.
	// "pmu-freq-003". Keys are 1-64 characters per the kvp specification.
	Key string
	// Family indexes into Families.
	Family int
}

// Unit returns the sensor's measurement unit.
func (s Sensor) Unit() string { return Families[s.Family].Unit }

// Catalogue returns the deterministic complement of PerSubstation sensors
// for one substation. Sensors are spread round-robin across the families so
// every substation carries the full instrument mix; the same index always
// yields the same sensor key.
func Catalogue() []Sensor {
	out := make([]Sensor, PerSubstation)
	counts := make([]int, len(Families))
	for i := range out {
		f := i % len(Families)
		out[i] = Sensor{
			Key:    fmt.Sprintf("%s-%03d", Families[f].Name, counts[f]),
			Family: f,
		}
		counts[f]++
	}
	return out
}

// Reader produces a stream of readings for one sensor as a mean-reverting
// random walk inside the family's nominal range. Readings are rendered as
// short decimal strings for the kvp sensor-value field.
type Reader struct {
	sensor Sensor
	rng    *gen.RNG
	value  float64
}

// NewReader returns a reading stream for the sensor, seeded deterministically.
func NewReader(s Sensor, seed uint64) *Reader {
	f := Families[s.Family]
	r := &Reader{sensor: s, rng: gen.NewRNG(seed)}
	r.value = f.Min + r.rng.Float64()*(f.Max-f.Min)
	return r
}

// Sensor returns the instrument this reader simulates.
func (r *Reader) Sensor() Sensor { return r.sensor }

// Next advances the walk and returns the new raw reading.
func (r *Reader) Next() float64 {
	f := Families[r.sensor.Family]
	span := f.Max - f.Min
	mid := f.Min + span/2
	// Mean-reverting step: drift toward the midpoint plus Gaussian noise.
	r.value += 0.01*(mid-r.value) + r.rng.NormFloat64()*f.Jitter*span
	if r.value < f.Min {
		r.value = f.Min
	}
	if r.value > f.Max {
		r.value = f.Max
	}
	return r.value
}

// NextString advances the walk and renders the reading as a decimal string
// of at most kvp.MaxSensorValueLen characters.
func (r *Reader) NextString() string {
	return FormatReading(r.Next())
}

// FormatReading renders a raw reading as a sensor-value field: a compact
// decimal with two fractional digits, guaranteed 1-20 characters for any
// value the catalogue's families can produce.
func FormatReading(v float64) string {
	return strconv.FormatFloat(v, 'f', 2, 64)
}
