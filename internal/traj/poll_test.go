package traj

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"crowdplanner/internal/geo"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
)

// pollGraph has two routes from node 0 to node 3: X = 0→1→3, the shorter,
// with four lights, and Y = 0→2→3, the longer, with none. Node 4 is
// isolated.
func pollGraph() *roadnet.Graph {
	g := roadnet.NewGraph(5, 4)
	for _, p := range []geo.Point{{X: 0, Y: 0}, {X: 500, Y: 200}, {X: 500, Y: -900}, {X: 1000, Y: 0}, {X: 5000, Y: 5000}} {
		g.AddNode(p)
	}
	g.AddEdge(0, 1, roadnet.Local, 0, 2, 0)
	g.AddEdge(1, 3, roadnet.Local, 0, 2, 0)
	g.AddEdge(0, 2, roadnet.Local, 0, 0, 0)
	g.AddEdge(2, 3, roadnet.Local, 0, 0, 0)
	return g
}

// pollPopulation returns drivers whose choices from 0 to 3, in sample
// (rankByID) order, spell votes: 'X' weighs distance only and takes X, 'Y'
// weighs lights only and takes Y, and '-' finds no route at all (a NaN time
// weight prices every edge at NaN, which never relaxes).
func pollPopulation(votes string) []*Driver {
	drivers := make([]*Driver, len(votes))
	for i := range drivers {
		drivers[i] = &Driver{ID: DriverID(i)}
	}
	for k, d := range rankByID(drivers) {
		switch votes[k] {
		case 'X':
			d.Prefs = Preferences{WDist: 1}
		case 'Y':
			d.Prefs = Preferences{WLights: 1}
		default:
			d.Prefs = Preferences{WTime: math.NaN()}
		}
	}
	return drivers
}

// TestPollStoppingRule checks where the poll decides on hand-built vote
// sequences, at 1, 2 and 4 procs: the verdict equals the sequential full
// poll's, the tallied prefix at the decision is the first whose leader
// leads the runner-up by more than the drivers left, and the drivers
// searched are exactly that prefix plus the window, W − 1 = 2·workers − 1.
func TestPollStoppingRule(t *testing.T) {
	x, y := roadnet.NewRoute(0, 1, 3), roadnet.NewRoute(0, 2, 3)
	cases := []struct {
		name    string
		votes   string
		sample  int
		to      roadnet.NodeID
		want    roadnet.Route // empty: ErrNoRoute
		decided int
	}{
		// After YYY the margin 3 equals the 3 drivers left: keep going.
		{"margin equals the untallied drivers", "YYYXYX", 0, 3, y, 5},
		// After YYY the margin 3 is one more than the 2 drivers left.
		{"margin one more than the untallied drivers", "YYYXX", 0, 3, y, 3},
		{"a driver with no route is tallied with no vote", "Y-Y-X", 0, 3, y, 4},
		// Y leads until the last vote; stopping at YYY would return Y.
		{"a tie goes to the smallest String", "YYYXXX", 0, 3, x, 6},
		{"every driver fails", "XYXYX", 0, 4, roadnet.Route{}, 5},
		{"sample 0 polls everyone", "XXYYY", 0, 3, y, 5},
		{"a sample above the population polls everyone", "XXYYY", 9, 3, y, 5},
		{"a sample of 2 polls the first two", "XXYYY", 2, 3, x, 2},
	}
	g := pollGraph()
	if x.String() >= y.String() {
		t.Fatalf("the tie case needs X to render first: %v, %v", x, y)
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			ds := NewDataset(g, pollPopulation(c.votes), nil)
			n := len(c.votes)
			if c.sample > 0 {
				n = min(n, c.sample)
			}
			got, st, err := ds.poll(0, c.to, routing.At(1, 9, 0), c.sample)
			ref, refErr := refGroundTruth(ds, 0, c.to, routing.At(1, 9, 0), c.sample)
			switch {
			case c.want.Empty() && !errors.Is(err, routing.ErrNoRoute):
				t.Errorf("procs %d, %s: got %v, %v; want ErrNoRoute", procs, c.name, got, err)
			case !c.want.Empty() && (err != nil || !got.Equal(c.want)):
				t.Errorf("procs %d, %s: got %v, %v; want %v", procs, c.name, got, err, c.want)
			case !got.Equal(ref) || (err == nil) != (refErr == nil):
				t.Errorf("procs %d, %s: got %v, %v; the sequential full poll says %v, %v", procs, c.name, got, err, ref, refErr)
			}
			if want := min(n, st.decided+2*min(procs, n)-1); st.decided != c.decided || st.searched != want {
				t.Errorf("procs %d, %s: decided after %d, searched %d; want %d and %d", procs, c.name, st.decided, st.searched, c.decided, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestGroundTruthSearchesRepeat: a poll's routing work depends on its
// inputs and GOMAXPROCS, not on how its workers are scheduled. Polling one
// OD twice at 4 procs moves the routing counters by equal deltas, and the
// searches equal the drivers searched, min(N, p* + W − 1).
func TestGroundTruthSearchesRepeat(t *testing.T) {
	const procs, sample = 4, 40
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ds := world(true)
	stopped := 0
	for _, od := range pollODs(ds.Graph, 40, 17) {
		var first routing.Stats
		var firstRoute roadnet.Route
		for rep := range 2 {
			before := routing.CounterSnapshot()
			r, st, _ := ds.poll(od.from, od.to, od.t, sample)
			after := routing.CounterSnapshot()
			d := routing.Stats{
				Searches:      after.Searches - before.Searches,
				AStarSearches: after.AStarSearches - before.AStarSearches,
				HeapPushes:    after.HeapPushes - before.HeapPushes,
			}
			if want := min(sample, st.decided+2*procs-1); st.searched != want || d.Searches != uint64(want) {
				t.Fatalf("OD %d→%d at %v: decided after %d, searched %d drivers, %d searches; want %d",
					od.from, od.to, od.t, st.decided, st.searched, d.Searches, want)
			}
			if rep == 0 {
				first, firstRoute = d, r
				if st.searched < sample {
					stopped++
				}
			} else if d != first || !r.Equal(firstRoute) {
				t.Fatalf("OD %d→%d at %v: counter deltas %+v then %+v, routes %v then %v",
					od.from, od.to, od.t, first, d, firstRoute, r)
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no poll stopped early; the test exercises nothing")
	}
}
