package crowdplanner_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"crowdplanner"
)

func TestFacadeEndToEnd(t *testing.T) {
	scn := crowdplanner.BuildScenario(crowdplanner.SmallScenarioConfig())
	trip := scn.Data.Trips[0]
	resp, err := scn.System.Recommend(context.Background(), crowdplanner.Request{
		From:   trip.Route.Source(),
		To:     trip.Route.Dest(),
		Depart: crowdplanner.At(1, 8, 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Route.Empty() {
		t.Fatal("empty route")
	}
	switch resp.Stage {
	case crowdplanner.StageReuse, crowdplanner.StageAgreement,
		crowdplanner.StageConfidence, crowdplanner.StageCrowd,
		crowdplanner.StageFallback:
	default:
		t.Errorf("unknown stage %v", resp.Stage)
	}
}

func TestFacadeAt(t *testing.T) {
	tm := crowdplanner.At(1, 8, 30)
	if tm.Day() != 1 || tm.HourOfDay() != 8.5 {
		t.Errorf("At = %v", tm)
	}
}

func TestFacadeHTTPHandler(t *testing.T) {
	scn := crowdplanner.BuildScenario(crowdplanner.SmallScenarioConfig())
	srv := httptest.NewServer(crowdplanner.NewHTTPHandler(scn.System))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}

	trip := scn.Data.Trips[0]
	body, _ := json.Marshal(map[string]any{
		"from": trip.Route.Source(), "to": trip.Route.Dest(), "depart_min": 510,
	})
	rec, err := http.Post(srv.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Body.Close()
	if rec.StatusCode != http.StatusOK {
		t.Fatalf("recommend status = %d", rec.StatusCode)
	}
}

func TestDefaultConfigs(t *testing.T) {
	if crowdplanner.DefaultConfig().EtaConfidence <= 0 {
		t.Error("bad default config")
	}
	small := crowdplanner.SmallScenarioConfig()
	def := crowdplanner.DefaultScenarioConfig()
	if small.City.Cols >= def.City.Cols {
		t.Error("small scenario should be smaller")
	}
}
