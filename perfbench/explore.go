package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"amped/internal/explore"
	"amped/internal/plan"
)

// exploreRun is the explore-1m workload: a closed loop of one caller that
// alternates a full ranking (SweepContext + SortByTime, top 10 kept) and a
// best-cell query (plan.Solve) over the same 1,116,480-cell space.
type exploreRun struct {
	sp  *space
	ops *ops

	feasible int           // feasible cells, fixed by the first ranking
	best     explore.Point // top-1 of the latest ranking
	planned  plan.Stats    // the latest planner answer's search statistics
}

func runExplore(cfg runConfig) (*outcome, error) {
	sp, setupS, err := measureSetup(func() (*space, error) { return newSpace(cfg.seed) }, func(*space) {})
	if err != nil {
		return nil, err
	}
	e := &exploreRun{sp: sp, ops: cfg.ops}
	e.sweep() // warm-up: heap growth and page faults land outside the timed loop

	var pairs, ranks, bests, cpus []time.Duration
	for start := time.Now(); time.Since(start) < cfg.seconds; {
		r, b, c := e.pair(nil)
		ranks, bests = append(ranks, r), append(bests, b)
		pairs, cpus = append(pairs, r+b), append(cpus, c)
	}
	lat := sortedCopy(millis(pairs))
	q, note := tailNote(len(lat))
	pair, cpu := median(lat)/1e3, median(millis(cpus))/1e3 // seconds per pair of queries
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
			{Name: "rank_cells_per_s", Value: spaceCells / (median(millis(ranks)) / 1e3), Unit: "cells/s", Note: "cells over the median ranking query"},
			{Name: "best_cells_per_s", Value: spaceCells / (median(millis(bests)) / 1e3), Unit: "cells/s", Note: "cells over the median best-cell query"},
			{Name: "latency_p99_ms", Value: percentile(lat, q), Unit: "ms", Note: "query pair, " + note},
			{Name: "feasible_cells", Value: float64(e.feasible), Unit: "count"},
		},
	}, nil
}

// pair runs one ranking query and one best-cell query, traced when tr is
// non-nil, each from a freshly collected heap so that no query pays for
// its predecessor's garbage, and returns their durations and CPU time.
func (e *exploreRun) pair(tr *tracer) (rank, best, cpu time.Duration) {
	runtime.GC()
	c0 := cpuTime()
	rank = e.rank(tr)
	cpu = cpuTime() - c0
	runtime.GC()
	c0 = cpuTime()
	best = e.solve(tr)
	return rank, best, cpu + cpuTime() - c0
}

// rank runs one ranking query, SweepContext then SortByTime, with a span
// around each call when traced.
func (e *exploreRun) rank(tr *tracer) time.Duration {
	var points []explore.Point
	return e.ops.do(func() error {
		ot := tr.begin("explore-1m.rank")
		defer ot.exit()
		err := ot.call("explore.SweepContext", func() error {
			var err error
			points, err = explore.SweepContext(context.Background(), e.sp.sc, e.sp.opt)
			return err
		})
		if err != nil {
			return err
		}
		return ot.call("explore.SortByTime", func() error {
			explore.SortByTime(points)
			return nil
		})
	}, func() error { return e.checkRank(points) })
}

// sweep runs one bare explore.Sweep of the space, without the ranking's
// sort, and checks it kept every feasible cell. It allocates what a ranking
// query does, so it serves as the warm-up.
func (e *exploreRun) sweep() {
	var n int
	e.ops.do(func() error {
		pts, err := explore.Sweep(e.sp.sc, e.sp.opt)
		n = len(pts)
		return err
	}, func() error {
		if n == 0 || (e.feasible != 0 && n != e.feasible) {
			return fmt.Errorf("sweep kept %d feasible cells, a ranking %d", n, e.feasible)
		}
		return nil
	})
}

// checkRank checks one full ranking and remembers its leader for the
// best-cell oracle.
func (e *exploreRun) checkRank(points []explore.Point) error {
	if err := checkRanking(points); err != nil {
		return err
	}
	if e.feasible == 0 {
		e.feasible = len(points)
	} else if len(points) != e.feasible {
		return fmt.Errorf("ranking holds %d feasible cells, an earlier one %d", len(points), e.feasible)
	}
	top := keepTop(points, topN)
	if len(top) == 0 {
		return errors.New("ranking is empty")
	}
	for _, p := range top {
		if err := e.sp.checkLiteral(p); err != nil {
			return err
		}
	}
	e.best = top[0]
	return nil
}

// solve runs one best-cell query through the planner and checks it against
// the exhaustive ranking's leader (planner = exhaustive).
func (e *exploreRun) solve(tr *tracer) time.Duration {
	var res *plan.Result
	return e.ops.do(func() error {
		ot := tr.begin("explore-1m.best")
		defer ot.exit()
		return ot.call("plan.Solve", func() error {
			var err error
			res, err = plan.Solve(e.sp.sc, e.sp.opt)
			return err
		})
	}, func() error { return e.checkBest(res) })
}

func (e *exploreRun) checkBest(res *plan.Result) error {
	if res.Best == nil {
		return errors.New("plan.Solve found no feasible cell")
	}
	e.planned = res.Stats // a copy: res holds the laid-out space alive
	want := e.best
	if want.Breakdown == nil {
		return errors.New("no ranking to check the planner against")
	}
	if res.Best.String() != want.String() || res.RankSeconds != float64(want.Breakdown.ExpectedTotalTime()) {
		return fmt.Errorf("planner best %v (%.17g s) differs from the exhaustive best %v (%.17g s)",
			res.Best, res.RankSeconds, want, float64(want.Breakdown.ExpectedTotalTime()))
	}
	return e.sp.checkLiteral(*res.Best)
}
