// Package plan is AMPeD's mapping planner: it answers "which cell is best"
// for a training scenario, a serving workload or a heterogeneous fleet.
//
// The training and serving planners are an exhaustive evaluation plus a
// linear selection. The model prices a cell in well under a microsecond,
// so any bound costing as much as the evaluation it might save cannot pay
// for itself: Solve runs the exhaustive sweep (explore.Sweep) over
// the scenario's canonical cell enumeration and takes explore.Best, the
// front of the sweep's own SortByTime ranking — the exact
// float64(Breakdown.ExpectedTotalTime()) rank key, ties broken by the
// cell's Point.String() identity. SolveInference evaluates every serving
// mapping that passes the KV-cache gate and keeps the minimal
// (PerToken, mapping identity) pair.
//
// SolveHetero is the one branch-and-bound search: there each cell is priced
// by the pipeline discrete-event simulator, and a closed-form pipeline
// bound far cheaper than a simulation prunes most of the space (see
// hetero.go).
package plan

import (
	"amped/internal/baseline"
	"amped/internal/explore"
	"amped/internal/model"
)

// Stats reports how much of the cell space the search touched.
type Stats struct {
	// CellsTotal is the size of the laid-out cell enumeration.
	CellsTotal int64
	// CellsPrunedMemory counts cells the memory model rules out: priced
	// cells that do not fit (training), mappings over the KV-aware
	// concurrency ceiling (serving, never priced).
	CellsPrunedMemory int64
	// CellsInfeasible counts cells whose schedule or validation makes them
	// unrankable.
	CellsInfeasible int64
	// CellsBounded counts cells cut off unpriced by a lower bound (the
	// heterogeneous branch-and-bound only).
	CellsBounded int64
	// CellsExpanded counts cells that were priced without error.
	CellsExpanded int64
	// ComputeFloorSeconds is the compute-only baseline floor for the
	// scenario's smallest batch at utilization 1, scaled to the recipe's
	// batch count — a root-level sanity statistic.
	ComputeFloorSeconds float64
}

// ExpandedFraction is CellsExpanded / CellsTotal (0 on an empty space).
func (s Stats) ExpandedFraction() float64 {
	if s.CellsTotal == 0 {
		return 0
	}
	return float64(s.CellsExpanded) / float64(s.CellsTotal)
}

// Result is the planner's outcome for one scenario.
type Result struct {
	// Best is the optimal feasible cell — identical, including the exact
	// rank key and tie-break, to the front of the exhaustive sweep's
	// SortByTime ranking. Nil when no cell is feasible.
	Best *explore.Point
	// RankSeconds is Best's exact rank_s key
	// (float64(Breakdown.ExpectedTotalTime())); 0 when Best is nil.
	RankSeconds float64
	// Stats describes the search effort.
	Stats Stats
}

// Solve finds the optimal feasible cell of the scenario's space. The
// scenario and options mean exactly what they mean to explore.Sweep —
// including a supplied pre-compiled Session and CursorLo/CursorHi shard
// ranges — and the returned Best is the front of the exhaustive sweep's
// SortByTime ranking (nil when no cell is feasible).
func Solve(sc explore.Scenario, opt explore.Options) (*Result, error) {
	opt.KeepInvalid = true
	points, err := explore.Sweep(sc, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Best: explore.Best(points)}
	st := &res.Stats
	st.CellsTotal = int64(len(points))
	for i := range points {
		switch {
		case points[i].Err != nil:
			st.CellsInfeasible++
		case !points[i].Fits:
			st.CellsPrunedMemory++
		}
	}
	st.CellsExpanded = st.CellsTotal - st.CellsInfeasible
	st.ComputeFloorSeconds = computeFloor(&sc, opt)
	if res.Best != nil {
		res.RankSeconds = float64(res.Best.Breakdown.ExpectedTotalTime())
	}
	return res, nil
}

// computeFloor derives the root-level compute-only statistic: the baseline
// predictor's floor for the smallest swept batch at utilization 1, scaled
// by the recipe's batch count. Purely informational — its fixed
// utilization and backward factor are not a bound on the
// efficiency-derated analytical model — so any derivation error simply
// reports 0. The recipe comes from the supplied session, or from compiling
// the scenario's, so defaults resolve exactly as the sweep resolved them.
func computeFloor(sc *explore.Scenario, opt explore.Options) float64 {
	if len(opt.Batches) == 0 {
		return 0
	}
	sess := sc.Session
	if sess == nil {
		var err error
		if sess, err = model.Compile(sc.Model, sc.System, sc.Training, sc.Eff); err != nil {
			return 0
		}
	}
	minB := opt.Batches[0]
	for _, b := range opt.Batches[1:] {
		if b < minB {
			minB = b
		}
	}
	tr := sess.Training()
	pred := &baseline.Predictor{
		Model:       sess.Model(),
		Accel:       sess.System().Accel,
		Workers:     sess.System().Nodes * sess.System().AccelsPerNode,
		Utilization: 1,
	}
	f, err := pred.ComputeFloor(minB, tr.BackwardComputeFactor)
	if err != nil {
		return 0
	}
	return float64(f) * float64(tr.NumBatches)
}
