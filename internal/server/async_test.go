package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/core"
	"crowdplanner/internal/landmark"
)

// asyncServer builds a crowd-forced system so async requests always publish
// tickets, on its own httptest server.
func asyncServer(t *testing.T) (*httptest.Server, *core.Scenario, *core.System) {
	t.Helper()
	_, w := testServer(t) // reuse the shared scenario world
	cfg := w.System.Config()
	cfg.AgreementSim = 1.01
	cfg.EtaConfidence = 1.01
	cfg.ReuseTruth = false
	sys := core.New(cfg, w.Graph, w.Landmarks, w.Data, w.Pool,
		&core.PopulationOracle{Data: w.Data, Sample: 30})
	srv := httptest.NewServer(New(sys).Handler())
	t.Cleanup(srv.Close)
	return srv, w, sys
}

func TestAsyncHTTPLifecycle(t *testing.T) {
	srv, w, sys := asyncServer(t)
	trip := w.Data.Trips[0]

	// 1. Publish.
	reqBody, _ := json.Marshal(RecommendRequest{
		From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
	})
	resp := postJSON(t, srv.URL+"/v1/recommend/async", json.RawMessage(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status = %d", resp.StatusCode)
	}
	out := decode[AsyncRecommendResponse](t, resp)
	if out.Ticket == nil {
		t.Skipf("TR resolved directly (stage %v)", out.Resolved.Stage)
	}
	ticket := out.Ticket
	if ticket.State != "open" || ticket.CurrentQuestion == nil || len(ticket.AssignedWorkers) == 0 {
		t.Fatalf("bad ticket %+v", ticket)
	}

	// 2. The assigned workers see the question.
	wt := decode[[]WorkerTaskInfo](t, mustGet(t,
		fmt.Sprintf("%s/v1/workers/%d/tasks", srv.URL, ticket.AssignedWorkers[0])))
	found := false
	for _, info := range wt {
		if info.TaskID == ticket.TaskID {
			found = true
			if info.Landmark != *ticket.CurrentQuestion {
				t.Errorf("worker sees landmark %d, ticket says %d", info.Landmark, *ticket.CurrentQuestion)
			}
		}
	}
	if !found {
		t.Error("assigned worker does not see the open task")
	}

	// 3. Everyone answers truthfully until resolution.
	oracleRoute, err := (&core.PopulationOracle{Data: w.Data, Sample: 30}).
		BestRoute(trip.Route.Source(), trip.Route.Dest(), trip.Depart)
	if err != nil {
		t.Fatal(err)
	}
	lr := calibrate.Calibrate(w.Graph, w.Landmarks, oracleRoute, sys.Config().Calibrate)
	truthSet := lr.IDSet()

	var resolved *RecommendResponse
	for round := 0; round < 200 && resolved == nil; round++ {
		state := decode[TaskStateResponse](t, mustGet(t,
			fmt.Sprintf("%s/v1/tasks/%d", srv.URL, ticket.TaskID)))
		if state.Ticket.State != "open" {
			resolved = state.Result
			break
		}
		lm := *state.Ticket.CurrentQuestion
		answered := false
		for _, wid := range state.Ticket.AssignedWorkers {
			body, _ := json.Marshal(AnswerRequest{
				Worker: wid,
				Yes:    truthSet[landmark.ID(lm)],
			})
			r, err := http.Post(
				fmt.Sprintf("%s/v1/tasks/%d/answer", srv.URL, ticket.TaskID),
				"application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if r.StatusCode == http.StatusConflict {
				r.Body.Close()
				continue // already answered or question advanced
			}
			if r.StatusCode != http.StatusOK {
				t.Fatalf("answer status = %d", r.StatusCode)
			}
			ans := decode[AnswerResponse](t, r)
			answered = true
			if ans.Resolved != nil {
				resolved = ans.Resolved
				break
			}
			// Question may have advanced: refresh state.
			break
		}
		if !answered {
			t.Fatal("no answer accepted while task open")
		}
	}
	if resolved == nil {
		t.Fatal("task never resolved over HTTP")
	}
	if resolved.Stage != "crowd" || len(resolved.Route) < 2 {
		t.Errorf("resolved = %+v", resolved)
	}
}

func TestAsyncHTTPValidation(t *testing.T) {
	srv, _, _ := asyncServer(t)
	// Unknown task.
	r := mustGet(t, srv.URL+"/v1/tasks/99999")
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown task status = %d", r.StatusCode)
	}
	// Bad task id.
	r = mustGet(t, srv.URL+"/v1/tasks/abc")
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status = %d", r.StatusCode)
	}
	// Bad worker id.
	r = mustGet(t, srv.URL+"/v1/workers/xyz/tasks")
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad worker status = %d", r.StatusCode)
	}
	// Unknown worker has no tasks (empty list, 200).
	r = mustGet(t, srv.URL+"/v1/workers/424242/tasks")
	if r.StatusCode != http.StatusOK {
		t.Errorf("unknown worker status = %d", r.StatusCode)
	}
	var tasks []WorkerTaskInfo
	_ = json.NewDecoder(r.Body).Decode(&tasks)
	r.Body.Close()
	if len(tasks) != 0 {
		t.Errorf("unknown worker tasks = %v", tasks)
	}
}

func TestAsyncHTTPExpire(t *testing.T) {
	srv, w, _ := asyncServer(t)
	trip := w.Data.Trips[2]
	reqBody, _ := json.Marshal(RecommendRequest{
		From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
	})
	resp := postJSON(t, srv.URL+"/v1/recommend/async", json.RawMessage(reqBody))
	out := decode[AsyncRecommendResponse](t, resp)
	if out.Ticket == nil {
		t.Skip("TR resolved directly")
	}
	r, err := http.Post(fmt.Sprintf("%s/v1/tasks/%d/expire", srv.URL, out.Ticket.TaskID),
		"application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("expire status = %d", r.StatusCode)
	}
	ans := decode[AnswerResponse](t, r)
	if ans.State != "expired" || ans.Resolved == nil {
		t.Errorf("expire = %+v", ans)
	}
	// Second expiry conflicts.
	r2, _ := http.Post(fmt.Sprintf("%s/v1/tasks/%d/expire", srv.URL, out.Ticket.TaskID),
		"application/json", nil)
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Errorf("double expire status = %d", r2.StatusCode)
	}
}

// TestV1ClosedTaskRetention: the server remembers the last
// core.RetainedClosedTasks closed tasks. Of RetainedClosedTasks+10 expired
// tasks, the oldest 10 are unknown (404 not_found) to GET, answer and
// expire; the rest still answer GET with their final state and answer and
// expire with 409 task_closed.
func TestV1ClosedTaskRetention(t *testing.T) {
	srv, w, sys := asyncServer(t)
	trip := w.Data.Trips[4]
	req := core.Request{From: trip.Route.Source(), To: trip.Route.Dest(), Depart: trip.Depart}
	var ids []int64
	for len(ids) < core.RetainedClosedTasks+10 {
		_, ticket, err := sys.RecommendAsync(context.Background(), req)
		if err != nil || ticket == nil {
			t.Fatalf("publish %d: ticket %v, err %v", len(ids), ticket, err)
		}
		if _, err := sys.ExpireTask(ticket.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ticket.ID)
	}
	if n := sys.OpenTasks(); n != 0 {
		t.Fatalf("open tasks = %d, want 0", n)
	}
	for i, id := range ids {
		get, err := http.Get(fmt.Sprintf("%s/v1/tasks/%d", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		answer := postJSON(t, fmt.Sprintf("%s/v1/tasks/%d/answer", srv.URL, id), AnswerRequest{Worker: 1, Yes: true})
		expire := postJSON(t, fmt.Sprintf("%s/v1/tasks/%d/expire", srv.URL, id), nil)
		if i < 10 {
			decodeEnvelope(t, get, http.StatusNotFound, "not_found")
			decodeEnvelope(t, answer, http.StatusNotFound, "not_found")
			decodeEnvelope(t, expire, http.StatusNotFound, "not_found")
			continue
		}
		st := decode[TaskStateResponse](t, get)
		if st.Ticket == nil || st.Ticket.State != "expired" || st.Result == nil || len(st.Result.Route) < 2 ||
			len(st.Ticket.AssignedWorkers) == 0 || len(st.Result.Candidates) == 0 {
			t.Fatalf("task %d: GET = %+v", id, st)
		}
		decodeEnvelope(t, answer, http.StatusConflict, "task_closed")
		decodeEnvelope(t, expire, http.StatusConflict, "task_closed")
	}
}
