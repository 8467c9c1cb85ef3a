package routing

import (
	"math"
	"math/rand"
	"testing"

	"crowdplanner/internal/roadnet"
)

// refMinuteOfDay is MinuteOfDay as two fmod calls, the definition the fast
// path must reproduce bit for bit.
func refMinuteOfDay(t SimTime) float64 {
	return math.Mod(float64(t.Normalize()), MinutesPerDay)
}

func checkMinuteOfDay(t *testing.T, x float64) {
	got, want := SimTime(x).MinuteOfDay(), refMinuteOfDay(SimTime(x))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Helper()
		t.Fatalf("MinuteOfDay(%v = %#x) = %v (%#x), want %v (%#x)",
			x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// dayBoundaries are the multiples of a day from 0 to one week, where the
// fast path's quotient can round up to the next day.
func dayBoundaries() []float64 {
	var out []float64
	for d := 0; d <= 7; d++ {
		out = append(out, float64(d*MinutesPerDay))
	}
	return out
}

// FuzzMinuteOfDay: the fast minute-of-day equals the fmod definition bit
// for bit on any float64.
func FuzzMinuteOfDay(f *testing.F) {
	for _, x := range []float64{
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		-61.5, MinutesPerWeek + 481.5, 5*MinutesPerWeek + 1049.75,
	} {
		f.Add(x)
	}
	for _, b := range dayBoundaries() {
		f.Add(math.Nextafter(b, math.Inf(-1)))
		f.Add(b)
		f.Add(math.Nextafter(b, math.Inf(1)))
	}
	f.Fuzz(checkMinuteOfDay)
}

// TestMinuteOfDayExact sweeps ±2,000 ulps around every day boundary, then
// 20M random times (2M under the race detector), uniform over the first
// week (the fast path) and over five weeks around it, then 100k raw bit
// patterns (fmod's run time grows with the exponent, so they stay few).
func TestMinuteOfDayExact(t *testing.T) {
	for _, b := range dayBoundaries() {
		lo, hi := b, b
		for range 2000 {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			checkMinuteOfDay(t, lo)
			checkMinuteOfDay(t, hi)
		}
		checkMinuteOfDay(t, b)
	}
	n := 20_000_000
	if raceEnabled {
		n /= 10
	}
	rng := rand.New(rand.NewSource(24))
	for i := range n {
		x := rng.Float64() * MinutesPerWeek
		if i%2 == 1 {
			x = (rng.Float64()*5 - 2) * MinutesPerWeek
		}
		checkMinuteOfDay(t, x)
	}
	for range 100_000 {
		checkMinuteOfDay(t, math.Float64frombits(rng.Uint64()))
	}
}

// TestTravelTimeCacheAlternatingClasses prices major and minor edges in
// alternation at one time, starting with either class, and pins every cost
// to TravelTimeCost.Cost bit for bit: a class's factor computed on its first
// edge must not leak into the other class's.
func TestTravelTimeCacheAlternatingClasses(t *testing.T) {
	var minor, major []roadnet.Edge
	for _, c := range []roadnet.RoadClass{roadnet.Local, roadnet.Collector, roadnet.Arterial, roadnet.Highway} {
		for lights := 0; lights <= 2; lights++ {
			e := roadnet.Edge{Length: 88.25 + 61*float64(lights), Class: c, SpeedKmh: c.DefaultSpeedKmh(), Lights: lights}
			if c >= roadnet.Arterial {
				major = append(major, e)
			} else {
				minor = append(minor, e)
			}
		}
	}
	edges := [2][]roadnet.Edge{minor, major}
	rng := rand.New(rand.NewSource(9))
	times := []SimTime{At(0, 8, 0), At(3, 17, 30), At(6, 23, 59), 0, MinutesPerWeek - 1e-9}
	for range 300 {
		times = append(times, SimTime((rng.Float64()*3-1)*MinutesPerWeek))
	}
	var c TravelTimeCache
	for i, tm := range times {
		first := i % 2
		for k := range 12 {
			side := edges[(first+k)%2]
			e := &side[k%len(side)]
			if got, want := c.Cost(e, tm), TravelTimeCost.Cost(e, tm); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("time %v, call %d (class %v): cached %v, want %v", float64(tm), k, e.Class, got, want)
			}
		}
	}
}
