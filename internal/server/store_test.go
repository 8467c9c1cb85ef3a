package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"crowdplanner/internal/core"
	"crowdplanner/internal/store/diskstore"
)

// TestHealthReportsStore: /v1/health carries the storage backend section.
func TestHealthReportsStore(t *testing.T) {
	s, _ := testServer(t)
	resp, err := http.Get(s.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[HealthResponse](t, resp)
	if h.Store.Backend != "none" {
		t.Fatalf("store backend = %q, want none (default)", h.Store.Backend)
	}
}

// TestAdminSnapshotEndpoint drives the full operator loop over HTTP: serve a
// request against a disk-backed system, snapshot via the admin endpoint, and
// verify the backend compacted its WAL.
func TestAdminSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	ds, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	cfg := core.SmallScenarioConfig()
	cfg.System.Store = ds
	scn := core.BuildScenario(cfg)
	if _, err := scn.System.LoadFromStore(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(scn.System).Handler())
	defer srv.Close()

	trip := scn.Data.Trips[0]
	resp := postJSON(t, srv.URL+"/v1/recommend", RecommendRequest{
		From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend status = %d", resp.StatusCode)
	}

	// The commit hit the WAL; health must show it.
	hr, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[HealthResponse](t, hr)
	if h.Store.Backend != "disk" || h.Store.TruthAppends == 0 {
		t.Fatalf("health store section = %+v", h.Store)
	}

	sr := postJSON(t, srv.URL+"/v1/admin/snapshot", struct{}{})
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", sr.StatusCode)
	}
	out := decode[SnapshotResponse](t, sr)
	if !out.OK || out.Store.Snapshots != 1 || out.Store.WALRecords != 0 {
		t.Fatalf("snapshot response = %+v", out)
	}

	// GET on the admin path is not a registered method.
	gr, err := http.Get(srv.URL + "/v1/admin/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, gr, http.StatusMethodNotAllowed, "method_not_allowed")
}

// TestTruthsPaginationRange: the v1 handler pages straight out of the store
// (EntriesRange), and the page parameters behave as before the refactor.
func TestTruthsPaginationRange(t *testing.T) {
	s, w := testServer(t)
	// Ensure at least a few truths exist.
	for _, trip := range w.Data.Trips[:8] {
		if trip.Route.Empty() {
			continue
		}
		resp := postJSON(t, s.URL+"/v1/recommend", RecommendRequest{
			From: trip.Route.Source(), To: trip.Route.Dest(), DepartMin: float64(trip.Depart),
		})
		resp.Body.Close()
	}
	total := w.System.TruthDB().Len()
	if total < 2 {
		t.Skipf("scenario produced only %d truths", total)
	}

	resp, err := http.Get(s.URL + "/v1/truths?limit=2&offset=1")
	if err != nil {
		t.Fatal(err)
	}
	page := decode[Page[TruthInfo]](t, resp)
	if page.Total < total || len(page.Items) != 2 || page.Limit != 2 || page.Offset != 1 {
		t.Fatalf("page = total=%d items=%d limit=%d offset=%d (store has %d)",
			page.Total, len(page.Items), page.Limit, page.Offset, total)
	}
	// The page must equal the matching slice of the full listing.
	all, _ := w.System.TruthDB().EntriesRange(0, 0)
	if page.Items[0].From != all[1].From || page.Items[0].To != all[1].To {
		t.Fatalf("page[0] = %+v, want entry 1 = %+v", page.Items[0], all[1])
	}

	// Past-the-end offsets still produce a well-formed empty page.
	resp, err = http.Get(s.URL + "/v1/truths?offset=100000")
	if err != nil {
		t.Fatal(err)
	}
	empty := decode[Page[TruthInfo]](t, resp)
	if len(empty.Items) != 0 || empty.Total < total {
		t.Fatalf("past-the-end page = %+v", empty)
	}
}
