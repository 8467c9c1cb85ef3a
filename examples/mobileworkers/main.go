// Mobileworkers: the paper's deployment protocol end to end. The server
// publishes a crowd task over HTTP; simulated mobile clients — one per
// assigned worker — poll for their open question and answer it according to
// their own local knowledge; the early-stop component resolves the task as
// soon as it is confident.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"crowdplanner"
	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/core"
	"crowdplanner/internal/landmark"
)

func main() {
	scn := crowdplanner.BuildScenario(crowdplanner.SmallScenarioConfig())
	// Force the crowd path so the demo always publishes a task.
	cfg := scn.System.Config()
	cfg.AgreementSim = 1.01
	cfg.EtaConfidence = 1.01
	cfg.ReuseTruth = false
	sys := core.New(cfg, scn.Graph, scn.Landmarks, scn.Data, scn.Pool,
		&core.PopulationOracle{Data: scn.Data, Sample: 40})
	srv := httptest.NewServer(crowdplanner.NewHTTPHandler(sys))
	defer srv.Close()

	trip := scn.Data.Trips[0]
	fmt.Printf("publishing request %d → %d ...\n", trip.Route.Source(), trip.Route.Dest())
	body, _ := json.Marshal(map[string]any{
		"from": trip.Route.Source(), "to": trip.Route.Dest(),
		"depart_min": float64(trip.Depart),
	})
	resp, err := http.Post(srv.URL+"/v1/recommend/async", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("publish: status %d", resp.StatusCode)
	}
	var pub struct {
		Resolved *json.RawMessage `json:"resolved"`
		Ticket   *struct {
			TaskID          int64   `json:"task_id"`
			CurrentQuestion *int32  `json:"current_question"`
			AssignedWorkers []int32 `json:"assigned_workers"`
		} `json:"ticket"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if pub.Ticket == nil {
		fmt.Println("the TR module resolved the request without the crowd")
		return
	}
	fmt.Printf("task %d published to workers %v\n\n", pub.Ticket.TaskID, pub.Ticket.AssignedWorkers)

	// Each worker's "knowledge" comes from their true familiarity: they
	// answer yes when they believe the drivers' preferred route passes the
	// landmark. Here we let them consult the population truth (perfectly
	// informed workers) to keep the demo deterministic.
	oracleRoute, err := (&core.PopulationOracle{Data: scn.Data, Sample: 40}).
		BestRoute(trip.Route.Source(), trip.Route.Dest(), trip.Depart)
	if err != nil {
		log.Fatal(err)
	}
	lr := calibrate.Calibrate(scn.Graph, scn.Landmarks, oracleRoute, sys.Config().Calibrate)
	truth := lr.IDSet()

	for round := 1; ; round++ {
		// Poll the task state (as a coordinator would).
		st, err := http.Get(fmt.Sprintf("%s/v1/tasks/%d", srv.URL, pub.Ticket.TaskID))
		if err != nil {
			log.Fatal(err)
		}
		if st.StatusCode != http.StatusOK {
			log.Fatalf("task state: status %d", st.StatusCode)
		}
		var state struct {
			Ticket struct {
				State           string  `json:"state"`
				CurrentQuestion *int32  `json:"current_question"`
				AssignedWorkers []int32 `json:"assigned_workers"`
			} `json:"ticket"`
			Result *struct {
				Stage   string  `json:"stage"`
				Route   []int32 `json:"route"`
				LengthM float64 `json:"length_m"`
			} `json:"result"`
		}
		if err := json.NewDecoder(st.Body).Decode(&state); err != nil {
			log.Fatal(err)
		}
		st.Body.Close()
		if state.Ticket.State != "open" {
			fmt.Printf("\ntask %s — stage %s, route %d nodes, %.1f km\n",
				state.Ticket.State, state.Result.Stage,
				len(state.Result.Route), state.Result.LengthM/1000)
			return
		}
		q := *state.Ticket.CurrentQuestion
		l := scn.Landmarks.Get(landmark.ID(q))
		fmt.Printf("round %d — question: does the best route pass %s?\n", round, l.Name)

		for _, wid := range state.Ticket.AssignedWorkers {
			ans, _ := json.Marshal(map[string]any{"worker": wid, "yes": truth[landmark.ID(q)]})
			r, err := http.Post(
				fmt.Sprintf("%s/v1/tasks/%d/answer", srv.URL, pub.Ticket.TaskID),
				"application/json", bytes.NewReader(ans))
			if err != nil {
				log.Fatal(err)
			}
			var reply struct {
				State    string           `json:"state"`
				Resolved *json.RawMessage `json:"resolved"`
			}
			if r.StatusCode == http.StatusOK {
				_ = json.NewDecoder(r.Body).Decode(&reply)
			}
			r.Body.Close()
			if r.StatusCode == http.StatusConflict {
				continue // question advanced while we were answering
			}
			if r.StatusCode != http.StatusOK {
				log.Fatalf("answer: status %d", r.StatusCode)
			}
			fmt.Printf("  worker %d answered %v\n", wid, truth[landmark.ID(q)])
			if reply.Resolved != nil {
				fmt.Println("  → early stop: question chain resolved the task")
				break
			}
			// If the question advanced, move to the next round.
			break
		}
	}
}
