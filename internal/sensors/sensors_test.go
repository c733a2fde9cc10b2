package sensors

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

	"tpcxiot/internal/kvp"
)

func TestCatalogueSize(t *testing.T) {
	if got := len(Catalogue()); got != PerSubstation {
		t.Fatalf("catalogue has %d sensors, want %d", got, PerSubstation)
	}
}

func TestCatalogueKeysUniqueAndValid(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Catalogue() {
		if seen[s.Key] {
			t.Fatalf("duplicate sensor key %q", s.Key)
		}
		seen[s.Key] = true
		if len(s.Key) < 1 || len(s.Key) > kvp.MaxSensorKeyLen {
			t.Fatalf("sensor key %q length %d outside kvp limits", s.Key, len(s.Key))
		}
	}
}

func TestCatalogueDeterministic(t *testing.T) {
	a, b := Catalogue(), Catalogue()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("catalogue not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCatalogueCoversAllFamilies(t *testing.T) {
	present := make([]bool, len(Families))
	for _, s := range Catalogue() {
		present[s.Family] = true
	}
	for i, p := range present {
		if !p {
			t.Fatalf("family %q missing from catalogue", Families[i].Name)
		}
	}
}

func TestFamilyUnitsWithinKvpLimits(t *testing.T) {
	for _, f := range Families {
		if len(f.Unit) < kvp.MinSensorUnitLen || len(f.Unit) > kvp.MaxSensorUnitLen {
			t.Fatalf("family %q unit %q length %d outside [%d,%d]",
				f.Name, f.Unit, len(f.Unit), kvp.MinSensorUnitLen, kvp.MaxSensorUnitLen)
		}
		if f.Max <= f.Min {
			t.Fatalf("family %q has empty range [%v,%v]", f.Name, f.Min, f.Max)
		}
	}
}

func TestReaderStaysInRange(t *testing.T) {
	for fi := range Families {
		s := Sensor{Key: "t", Family: fi}
		r := NewReader(s, 99)
		f := Families[fi]
		for i := 0; i < 5000; i++ {
			v := r.Next()
			if v < f.Min || v > f.Max {
				t.Fatalf("family %q reading %v outside [%v,%v]", f.Name, v, f.Min, f.Max)
			}
		}
	}
}

func TestReaderDeterministic(t *testing.T) {
	s := Catalogue()[0]
	a := NewReader(s, 7)
	b := NewReader(s, 7)
	for i := 0; i < 100; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("readers with equal seeds diverged at %d", i)
		}
	}
}

func TestReaderSeedsDiffer(t *testing.T) {
	s := Catalogue()[0]
	a := NewReader(s, 1)
	b := NewReader(s, 2)
	identical := true
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("readers with different seeds produced identical streams")
	}
}

func TestFormatReadingWithinValueLimits(t *testing.T) {
	f := func(raw float64) bool {
		// Clamp into the widest catalogue range to mirror Reader behaviour.
		if raw < -1e6 || raw > 1e6 {
			return true // out of modelled space; skip
		}
		s := FormatReading(raw)
		return len(s) >= kvp.MinSensorValueLen && len(s) <= kvp.MaxSensorValueLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadingStringsFitPair(t *testing.T) {
	// Every sensor's rendered reading must leave room for padding in a
	// 1 KiB pair with a realistic key.
	for _, s := range Catalogue() {
		r := NewReader(s, 5)
		k := kvp.Key{Substation: "substation-00001", Sensor: s.Key, Timestamp: 1700000000000}
		for i := 0; i < 10; i++ {
			reading := r.NextString()
			if _, err := kvp.PaddingFor(k, reading, s.Unit()); err != nil {
				t.Fatalf("sensor %s reading %q does not fit a pair: %v", s.Key, reading, err)
			}
		}
	}
}

// formatReadingGolden is formatReadingDigest as computed with
// fmt.Sprintf("%.2f", v). Every kvp's sensor-value field, and so every
// benchmark input digest, depends on these bytes.
const formatReadingGolden = "d3e439a10981db866a700efcb009ddc57178edf45d7e934da15295e344b2ea10"

// formatReadingDigest hashes FormatReading over every family's seeded
// stream and over edge values: zeros of both signs, family bounds,
// negatives, halves that round either way at the third decimal, and values
// far out of any family's range.
func formatReadingDigest() string {
	h := sha256.New()
	put := func(v float64) {
		s := FormatReading(v)
		h.Write([]byte{byte(len(s))})
		h.Write([]byte(s))
	}
	edges := []float64{0, math.Copysign(0, -1), -0.001, -0.004, -0.005, -0.006, 0.005, 0.015, 0.025,
		0.125, 1.005, 2.675, 59.995, 60.005, -179.995, 1e-9, -1e-9, 123456.789, -0.5, 0.994999, 0.995,
		math.MaxInt32, math.Nextafter(0.005, 1), math.Nextafter(0.005, 0)}
	for _, f := range Families {
		edges = append(edges, f.Min, f.Max, math.Nextafter(f.Min, math.Inf(-1)), math.Nextafter(f.Max, math.Inf(1)))
	}
	for _, v := range edges {
		put(v)
	}
	for i, s := range Catalogue() {
		r := NewReader(s, uint64(i)*7919+3)
		for j := 0; j < 500; j++ {
			put(r.Next())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFormatReadingGolden(t *testing.T) {
	if got := formatReadingDigest(); got != formatReadingGolden {
		t.Fatalf("FormatReading output changed: digest %s, want %s", got, formatReadingGolden)
	}
}

var formatSink string

func BenchmarkFormatReading(b *testing.B) {
	r := NewReader(Catalogue()[0], 1)
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = r.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		formatSink = FormatReading(vs[i%len(vs)])
	}
}
