// Commute: the paper's motivating scenario. The web service's shortest and
// fastest routes disagree with what experienced drivers actually do, and the
// disagreement changes between morning and evening rush. CrowdPlanner
// resolves each case and we compare everyone against the population ground
// truth.
package main

import (
	"context"
	"fmt"
	"log"

	"crowdplanner"
	"crowdplanner/internal/core"
	"crowdplanner/internal/routing"
)

func main() {
	scn := crowdplanner.BuildScenario(crowdplanner.DefaultScenarioConfig())
	g := scn.Graph

	// A well-supported commuter OD pair from the corpus.
	trip := scn.Data.Trips[0]
	from, to := trip.Route.Source(), trip.Route.Dest()

	for _, slot := range []struct {
		name   string
		depart crowdplanner.SimTime
	}{
		{"morning rush (Mon 08:00)", crowdplanner.At(0, 8, 0)},
		{"evening rush (Mon 17:30)", crowdplanner.At(0, 17, 30)},
	} {
		fmt.Printf("=== %s ===\n", slot.name)
		truth, err := scn.Data.GroundTruth(from, to, slot.depart, 60)
		if err != nil {
			log.Fatal(err)
		}

		req := core.Request{From: from, To: to, Depart: slot.depart}
		for _, p := range core.Providers() {
			rs, err := p.Propose(scn.System, req)
			if err != nil {
				fmt.Printf("  %-14s (no route: %v)\n", p.Name, err)
				continue
			}
			r := rs[0] // the provider's own route; alternatives follow it
			fmt.Printf("  %-14s %5.1f km  %5.1f min  similarity to drivers' choice %.2f\n",
				p.Name, r.Length(g)/1000,
				routing.TravelMinutes(g, r, slot.depart), r.Similarity(truth))
		}

		resp, err := scn.System.Recommend(context.Background(), req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %5.1f km  %5.1f min  similarity to drivers' choice %.2f  (stage: %s)\n\n",
			"CrowdPlanner", resp.Route.Length(g)/1000,
			routing.TravelMinutes(g, resp.Route, slot.depart),
			resp.Route.Similarity(truth), resp.Stage)
	}
}
