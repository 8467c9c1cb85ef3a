package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdplanner/internal/core"
)

// ingestServer builds a private world: ingestion mutates the corpus, so the
// shared read-mostly test server must not be used.
func ingestServer(t *testing.T) (*httptest.Server, *core.Scenario) {
	t.Helper()
	scn := core.BuildScenario(core.SmallScenarioConfig())
	srv := httptest.NewServer(New(scn.System).Handler())
	t.Cleanup(srv.Close)
	return srv, scn
}

func TestIngestTrajectories(t *testing.T) {
	s, w := ingestServer(t)
	var trip core.Request
	var nodes []int64
	for _, tr := range w.Data.Trips {
		if tr.Route.Empty() {
			continue
		}
		trip = core.Request{From: tr.Route.Source(), To: tr.Route.Dest(), Depart: tr.Depart}
		for _, n := range tr.Route.Nodes {
			nodes = append(nodes, int64(n))
		}
		break
	}
	if nodes == nil {
		t.Fatal("no usable trip in corpus")
	}
	before := w.System.CorpusSize()

	body := map[string]any{"trips": []map[string]any{
		{"driver": 3, "depart_min": float64(trip.Depart) + 30, "nodes": nodes},
		{"driver": 4, "depart_min": 510, "nodes": []int64{0}},        // too short
		{"driver": 5, "depart_min": 510, "nodes": []int64{0, 99999}}, // out of range
		// Would alias onto valid nodes if narrowed to int32; must be
		// rejected, not wrapped.
		{"driver": 6, "depart_min": 510, "nodes": []int64{1 << 32, 1<<32 + 1}},
	}}
	resp := postJSON(t, s.URL+"/v1/trajectories", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[IngestResponse](t, resp)
	if out.Accepted != 1 || len(out.Rejected) != 3 {
		t.Fatalf("reply = %+v, want 1 accepted / 3 rejected", out)
	}
	if out.Rejected[0].Index != 1 || out.Rejected[1].Index != 2 || out.Rejected[2].Index != 3 {
		t.Fatalf("rejection indices = %+v", out.Rejected)
	}
	if !strings.Contains(out.Rejected[2].Reason, "representable") {
		t.Fatalf("int64 overflow reason = %q", out.Rejected[2].Reason)
	}
	if out.TotalTrips != before+1 {
		t.Fatalf("total_trips = %d, want %d", out.TotalTrips, before+1)
	}

	// The ingested trip shows up in the health inventory.
	hres, err := http.Get(s.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	health := decode[HealthResponse](t, hres)
	if health.Trips != before+1 {
		t.Fatalf("health trips = %d, want %d", health.Trips, before+1)
	}
	if health.Store.TrajAppends != 1 {
		t.Fatalf("store traj_appends = %d, want 1", health.Store.TrajAppends)
	}
}

func TestIngestTrajectoriesValidation(t *testing.T) {
	s, _ := ingestServer(t)

	// Empty batch.
	resp := postJSON(t, s.URL+"/v1/trajectories", map[string]any{"trips": []any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Over the limit.
	big := make([]map[string]any, trajMaxItems+1)
	for i := range big {
		big[i] = map[string]any{"driver": 1, "depart_min": 500, "nodes": []int64{0, 1}}
	}
	resp = postJSON(t, s.URL+"/v1/trajectories", map[string]any{"trips": big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status = %d", resp.StatusCode)
	}
	env := decode[errorEnvelope](t, resp)
	if env.Error.Code != CodeTooLarge {
		t.Fatalf("oversized batch code = %q", env.Error.Code)
	}

	// Malformed JSON.
	req, _ := http.NewRequest(http.MethodPost, s.URL+"/v1/trajectories", nil)
	hres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if hres.StatusCode != http.StatusBadRequest {
		t.Fatalf("nil body status = %d", hres.StatusCode)
	}
	hres.Body.Close()
}
