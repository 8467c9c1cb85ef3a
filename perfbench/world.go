package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"crowdplanner/internal/calibrate"
	"crowdplanner/internal/core"
	"crowdplanner/internal/landmark"
	"crowdplanner/internal/roadnet"
	"crowdplanner/internal/routing"
	"crowdplanner/internal/server"
	"crowdplanner/internal/store"
	"crowdplanner/internal/store/diskstore"
	"crowdplanner/internal/traj"
	"crowdplanner/internal/worker"
)

// worldShape is the size of the world a run measured.
type worldShape struct{ nodes, edges, trips, workers int }

// world is one assembled system behind its HTTP handler.
type world struct {
	cfg   core.ScenarioConfig
	sys   *core.System
	g     *roadnet.Graph
	lms   *landmark.Set
	data  *traj.Dataset
	h     http.Handler
	trips []traj.Trajectory // the generated corpus, copied before serving
	close func() error

	// Set only by a traced build.
	prepD, prepT *routing.Preprocessed // the replay's own ALT tables
	steps        []metric              // setup.* step times
}

func (w *world) shape() worldShape {
	return worldShape{w.g.NumNodes(), w.g.NumEdges(), len(w.trips), w.sys.Pool().Len()}
}

// scenarioConfig is cpserver's default world, or the small one.
func scenarioConfig(o options) core.ScenarioConfig {
	if o.small {
		return core.SmallScenarioConfig()
	}
	return core.DefaultScenarioConfig()
}

// buildWorld assembles the system the way cpserver does: BuildScenario, an
// optional diskstore without fsync (-data-dir -no-fsync) restored through
// LoadFromStore, and server.New without overload options. With a tracer it
// rebuilds the world step by step instead, timing each step, and passes the
// timing decorators into core.New.
func buildWorld(o options, durable bool, tr *tracer) (*world, error) {
	w := &world{cfg: scenarioConfig(o), close: func() error { return nil }}
	var ds *diskstore.Store
	if durable {
		if err := os.MkdirAll(o.scratch, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(o.scratch, "store-")
		if err != nil {
			return nil, err
		}
		if ds, err = diskstore.Open(dir, diskstore.WithoutSync()); err != nil {
			_ = os.RemoveAll(dir)
			return nil, err
		}
		w.cfg.System.Store = ds
		w.close = func() error {
			err := ds.Close()
			if rerr := os.RemoveAll(dir); err == nil {
				err = rerr
			}
			return err
		}
	}
	if tr == nil {
		scn := core.BuildScenario(w.cfg)
		w.sys, w.g, w.lms, w.data = scn.System, scn.Graph, scn.Landmarks, scn.Data
	} else {
		w.buildTraced(tr)
	}
	w.trips = append([]traj.Trajectory(nil), w.data.Trips...)
	if ds != nil {
		if _, err := w.sys.LoadFromStore(context.Background()); err != nil {
			_ = w.close()
			return nil, err
		}
	}
	w.h = server.New(w.sys).Handler()
	return w, nil
}

// buildTraced repeats core.BuildScenario one step at a time, timing each.
func (w *world) buildTraced(tr *tracer) {
	cfg := w.cfg
	step := func(name string, f func()) {
		t0 := time.Now()
		f()
		w.steps = append(w.steps, metric{name: "setup." + name + "_s", value: time.Since(t0).Seconds(), unit: "s"})
	}
	var drivers []*traj.Driver
	var pool *worker.Pool
	step("roadnet", func() { w.g = roadnet.Generate(cfg.City) })
	step("traj", func() {
		drivers = traj.NewPopulation(w.g, cfg.Population)
		w.data = traj.GenerateDataset(w.g, drivers, cfg.Dataset)
	})
	step("landmark", func() {
		w.lms = landmark.Generate(w.g, cfg.Landmarks)
		visits := landmark.GenerateCheckins(w.lms, w.g.BBox(), cfg.Checkins)
		visits = append(visits, calibrate.TrajectoryVisits(w.data, w.lms, cfg.System.Calibrate, 1_000_000)...)
		w.lms.InferSignificance(visits, cfg.HITS)
	})
	step("pool", func() { pool = worker.GeneratePool(w.g.BBox(), w.lms, cfg.Workers) })
	// core.New builds the same two ALT tables internally; these copies serve
	// the replay, and timing them times that part of core.New.
	step("prep", func() {
		w.prepD = routing.Preprocess(w.g, routing.DistanceCost, routing.DefaultPrepConfig())
		w.prepT = routing.Preprocess(w.g, routing.TravelTimeCost, routing.DefaultPrepConfig())
	})
	sysCfg := cfg.System
	if sysCfg.Store == nil {
		sysCfg.Store = store.Discard()
	}
	sysCfg.Store = &timedStore{Store: sysCfg.Store, tr: tr}
	oracle := &timedOracle{inner: &core.PopulationOracle{Data: w.data, Sample: sysCfg.OracleSample}, tr: tr}
	step("system", func() { w.sys = core.New(sysCfg, w.g, w.lms, w.data, pool, oracle) })
	// core.New ends with RefreshFamiliarity; a second call on the unchanged
	// pool does the same work and times it on its own.
	step("familiarity", func() { w.sys.RefreshFamiliarity() })
}

// setUp builds o.setups worlds one after another and keeps the last. Each is
// timed from nothing to ready for the first timed request: world, system,
// handler and prepare (e.g. a warm-up). setup_s is the median of the timings.
func setUp(o options, durable bool, prepare func(*world) error) (*world, time.Duration, error) {
	var times []time.Duration
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		w, err := buildWorld(o, durable, nil)
		if err == nil && prepare != nil {
			err = prepare(w)
		}
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0))
		if i == o.setups-1 {
			slices.Sort(times)
			return w, times[len(times)/2], nil
		}
		if err := w.close(); err != nil {
			return nil, 0, err
		}
	}
	panic("unreachable: o.setups >= 1")
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// provenance describes what produced a result.
func provenance(commit string, o options, ws worldShape) map[string]any {
	world := "default"
	if o.small {
		world = "small"
	}
	return map[string]any{
		"commit": commit, "source_sha256": sourceDigest("."),
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"world": world, "nodes": ws.nodes, "edges": ws.edges, "trips": ws.trips, "workers": ws.workers,
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
	}
}

// sourceDigest hashes every .go and go.mod file under root, in path order,
// skipping dot directories (and so the build directory). It identifies the
// measured code where no commit hash is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, _ = io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
