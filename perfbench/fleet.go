package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"amped/internal/serve"
)

// fleet is a coordinator and two peers over loopback, all in this process.
// The coordinator journals durable jobs to a temporary directory, so every
// merged chunk is fsynced.
type fleet struct {
	peers  []*server
	coord  *server
	dir    string
	client *http.Client
}

const fleetPeers = 2

func startFleet() (*fleet, error) {
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "journal-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, client: newClient(runtime.NumCPU())}
	var urls []string
	for i := 0; i < fleetPeers; i++ {
		p, err := startServer(serve.Config{})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.peers = append(f.peers, p)
		urls = append(urls, p.url)
	}
	if f.coord, err = startServer(serve.Config{Peers: urls, JournalDir: dir}); err != nil {
		f.stop()
		return nil, err
	}
	for _, s := range append([]*server{f.coord}, f.peers...) {
		if err := healthy(f.client, s.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stop stops every server and removes the journal directory.
func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.stop()
	}
	for _, p := range f.peers {
		p.stop()
	}
	f.client.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// fleetEnv is a running fleet-1m set-up and its oracle.
type fleetEnv struct {
	sp  *space
	f   *fleet
	ops *ops

	feasible int    // feasible cells of the in-process ranking
	want     []byte // the in-process top 10 as /v1/sweep renders it
}

func setupFleet(seed int64) (*fleetEnv, error) {
	sp, err := newSpace(seed)
	if err != nil {
		return nil, err
	}
	f, err := startFleet()
	if err != nil {
		return nil, err
	}
	return &fleetEnv{sp: sp, f: f}, nil
}

// expect ranks the space in process for the sharded = single-node oracle.
func (env *fleetEnv) expect() error {
	r, err := env.sp.rankChunked(1 << 16)
	if err != nil {
		return err
	}
	env.feasible = r.feasible
	env.want, err = wirePoints(r.top)
	return err
}

// checkSweep verifies a served ranking: complete, the whole feasible space
// counted, and the top 10 byte-identical to the in-process ranking.
func (env *fleetEnv) checkSweep(what string, body []byte) error {
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if resp.Partial || resp.TotalPoints != env.feasible {
		return fmt.Errorf("%s: partial=%v over %d feasible cells, want %d", what, resp.Partial, resp.TotalPoints, env.feasible)
	}
	got, err := json.Marshal(resp.Points)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, env.want) {
		return fmt.Errorf("%s: top %d differs from the in-process ranking:\n got %s\nwant %s", what, topN, got, env.want)
	}
	return nil
}

// sync runs one synchronous sharded /v1/sweep.
func (env *fleetEnv) sync(tr *tracer) time.Duration {
	var status int
	var body []byte
	return env.ops.do(func() error {
		ot := tr.begin("fleet-1m.sync")
		defer ot.exit()
		var err error
		status, body, err = post(env.f.client, ot, env.f.coord.url+"/v1/sweep", env.sp.body)
		return err
	}, func() error {
		if status != http.StatusOK {
			return fmt.Errorf("sharded /v1/sweep = %d: %.300s", status, body)
		}
		return env.checkSweep("sharded /v1/sweep", body)
	})
}

// jobPoll is how often a durable job's status is read.
const jobPoll = 10 * time.Millisecond

// jobDeadline fails a job that has not finished in this long as stalled.
const jobDeadline = 120 * time.Second

// job submits one durable /v1/sweep/jobs sweep and polls it to the end.
func (env *fleetEnv) job(tr *tracer) time.Duration {
	var st serve.JobStatus
	return env.ops.do(func() error {
		ot := tr.begin("fleet-1m.job")
		defer ot.exit()
		ot.enter("http.Submit")
		status, body, err := post(env.f.client, nil, env.f.coord.url+"/v1/sweep/jobs", env.sp.body)
		ot.exit()
		if err != nil {
			return err
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("/v1/sweep/jobs = %d: %.300s", status, body)
		}
		var created struct {
			ID string `json:"job_id"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			return err
		}
		ot.enter("job.Poll")
		defer ot.exit()
		for start := time.Now(); time.Since(start) < jobDeadline; time.Sleep(jobPoll) {
			status, body, err := send(env.f.client, nil, http.MethodGet, env.f.coord.url+"/v1/jobs/"+created.ID, nil)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("job %s status = %d", created.ID, status)
			}
			st = serve.JobStatus{}
			if err := json.Unmarshal(body, &st); err != nil {
				return err
			}
			if st.State != "running" {
				return nil
			}
		}
		return fmt.Errorf("job %s stalled: still running after %v", created.ID, jobDeadline)
	}, func() error {
		if st.State != "done" {
			return fmt.Errorf("job %s ended %s (%s): %s", st.ID, st.State, st.Class, st.Error)
		}
		return env.checkSweep("durable job", st.Result)
	})
}

// pair runs one synchronous sweep and one durable job, traced when tr is
// non-nil, each from a freshly collected heap, and returns their durations
// and the CPU time the whole process (client, coordinator, peers) used.
func (env *fleetEnv) pair(tr *tracer) (sync, job, cpu time.Duration) {
	runtime.GC()
	c0 := cpuTime()
	sync = env.sync(tr)
	cpu = cpuTime() - c0
	runtime.GC()
	c0 = cpuTime()
	job = env.job(tr)
	return sync, job, cpu + cpuTime() - c0
}

func runFleet(cfg runConfig) (*outcome, error) {
	env, setupS, err := measureSetup(func() (*fleetEnv, error) { return setupFleet(cfg.seed) },
		func(env *fleetEnv) { env.f.stop() })
	if err != nil {
		return nil, err
	}
	defer env.f.stop()
	env.ops = cfg.ops
	if err := env.expect(); err != nil {
		return nil, err
	}
	// The oracle's in-process ranking above already grew the heap to what the
	// peers' chunked sweeps need; no separate warm-up.

	before, err := scrape(env.f.client, env.f.coord.url)
	if err != nil {
		return nil, err
	}
	var pairs, syncs, jobs, cpus []time.Duration
	for start := time.Now(); time.Since(start) < cfg.seconds; {
		s, j, c := env.pair(nil)
		syncs, jobs = append(syncs, s), append(jobs, j)
		pairs, cpus = append(pairs, s+j), append(cpus, c)
	}
	after, err := scrape(env.f.client, env.f.coord.url)
	if err != nil {
		return nil, err
	}
	ops := float64(2 * len(pairs))
	lat := sortedCopy(millis(pairs))
	q, note := tailNote(len(lat))
	pair, cpu := median(lat)/1e3, median(millis(cpus))/1e3 // seconds per sweep and job
	return &outcome{
		metrics: map[string]float64{
			"setup_s":         setupS,
			"req_per_s":       2 / pair,
			"cells_per_s":     2 * spaceCells / pair,
			"latency_p50_ms":  median(lat),
			"cpu_us_per_req":  cpu * 1e6 / 2,
			"cpu_ns_per_cell": cpu * 1e9 / (2 * spaceCells),
			"peak_rss_mb":     peakRSSMB(),
		},
		extra: []extraMetric{
			{Name: "rank_cells_per_s", Value: spaceCells / (median(millis(syncs)) / 1e3), Unit: "cells/s", Note: "cells over the median synchronous sharded sweep"},
			{Name: "job_cells_per_s", Value: spaceCells / (median(millis(jobs)) / 1e3), Unit: "cells/s", Note: "cells over the median durable job"},
			{Name: "latency_p99_ms", Value: percentile(lat, q), Unit: "ms", Note: "sweep+job pair, " + note},
			{Name: "feasible_cells", Value: float64(env.feasible), Unit: "count"},
			{Name: "shard_retries_per_op", Value: delta(before, after, "amped_shard_retries_total") / ops, Unit: "count"},
			{Name: "hedges_per_op", Value: delta(before, after, "amped_hedges_total") / ops, Unit: "count"},
		},
	}, nil
}
