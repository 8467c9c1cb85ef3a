// Package routing implements route search over a roadnet.Graph: Dijkstra and
// A* single-pair search, Yen's k-shortest paths, and cost models (shortest
// distance, time-of-day-aware fastest time). These play the role of the
// "map web services" candidate-route source in the paper's route generation
// component.
package routing

import (
	"fmt"
	"math"
)

// SimTime is a simulated departure time measured in minutes since Monday
// 00:00. The simulation uses a weekly cycle, which is all the paper's
// time-tagged truth needs.
type SimTime float64

// MinutesPerDay and MinutesPerWeek define the simulated calendar.
const (
	MinutesPerDay  = 24 * 60
	MinutesPerWeek = 7 * MinutesPerDay
)

// At constructs a SimTime from a day (0=Monday) and a 24h clock time.
func At(day, hour, minute int) SimTime {
	return SimTime(day*MinutesPerDay + hour*60 + minute)
}

// Normalize wraps t into [0, MinutesPerWeek).
func (t SimTime) Normalize() SimTime {
	m := math.Mod(float64(t), MinutesPerWeek)
	if m < 0 {
		m += MinutesPerWeek
	}
	return SimTime(m)
}

// MinuteOfDay returns the (fractional) minute of day in [0, 1440): the bits
// of math.Mod(float64(t.Normalize()), 1440) for every t.
//
// Inside the first week (0 < t < 1 week, which is every time a search
// prices) it skips both fmod calls. Normalize is the identity there, and
// fmod returns the exact remainder t − q·1440 with q = ⌊t/1440⌋. k =
// ⌊fl(t/1440)⌋ is q or q+1: rounding is monotonic and 1440·q ≤ t. k·1440 is
// an integer below 2^14, so t − k·1440 is a multiple of t's ulp no larger
// than t in magnitude and is computed exactly; it is negative exactly when
// k = q+1, and then t − (k−1)·1440 is the remainder, again exactly. −0,
// negative times, times of a week or more, NaN and ±Inf keep the fmod
// path.
func (t SimTime) MinuteOfDay() float64 {
	x := float64(t)
	if 0 < x && x < MinutesPerWeek {
		k := math.Floor(x / MinutesPerDay)
		r := x - k*MinutesPerDay
		if r < 0 {
			r = x - (k-1)*MinutesPerDay
		}
		return r
	}
	return math.Mod(float64(t.Normalize()), MinutesPerDay)
}

// HourOfDay returns the (fractional) hour of day in [0, 24).
func (t SimTime) HourOfDay() float64 { return t.MinuteOfDay() / 60 }

// Day returns the day of week, 0=Monday .. 6=Sunday.
func (t SimTime) Day() int {
	return int(float64(t.Normalize()) / MinutesPerDay)
}

// Add returns t shifted by m minutes.
func (t SimTime) Add(m float64) SimTime { return SimTime(float64(t) + m) }

// Slot quantizes the time into one of slots equal buckets over the day,
// ignoring the day of week. The paper tags truths with a departure-time tag;
// slots are the granularity of those tags.
func (t SimTime) Slot(slots int) int {
	if slots <= 0 {
		return 0
	}
	return int(t.HourOfDay() / 24 * float64(slots))
}

// String implements fmt.Stringer with a day/hh:mm rendering.
func (t SimTime) String() string {
	days := [...]string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}
	n := t.Normalize()
	h := int(n.HourOfDay())
	m := int(math.Mod(float64(n), 60))
	return fmt.Sprintf("%s %02d:%02d", days[n.Day()], h, m)
}

// CongestionFactor returns the travel-time multiplier for the given hour of
// day: 1.0 free flow at night, rising to rush-hour peaks around 08:00 and
// 17:30. Congestion is deliberately asymmetric across road classes — the
// morning commute overloads the major arterials and highways while the
// evening spread-out traffic clogs the minor streets — so the best route
// between two places genuinely changes with the time of day. This is the
// phenomenon that motivates time-period popular-route mining (Luo et al.
// [13]) and the truth database's time tags.
//
// The factor is the shared part every class sees plus the class's own peak,
// added in that order; TravelTimeCache evaluates the two parts separately
// with the same operations, so its factors carry the same bits.
func CongestionFactor(hour float64, major bool) float64 {
	return sharedCongestion(hour) + classPeak(hour, major)
}

// sharedCongestion is the part of the congestion factor every road class
// sees: free flow plus both commuting peaks.
func sharedCongestion(hour float64) float64 {
	return 1.0 + peak(hour, 8, 1.2, 0.5) + peak(hour, 17.5, 1.5, 0.5)
}

// classPeak is a road class's own peak: the morning commute jams the
// arterials, evening errands jam the side streets.
func classPeak(hour float64, major bool) float64 {
	if major {
		return peak(hour, 8, 1.0, 0.9)
	}
	return peak(hour, 17.5, 1.2, 0.9)
}

// peak is a Gaussian bump of the given height and width centred on center.
func peak(hour, center, width, height float64) float64 {
	d := hour - center
	return height * math.Exp(-d*d/(2*width*width))
}
