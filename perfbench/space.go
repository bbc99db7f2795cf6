package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"amped/internal/audit"
	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/serve"
)

// spaceCells is the size of the explore-1m cell enumeration, whatever the
// seed: the seed moves link constants, never the shape of the space.
const spaceCells = 1116480

// topN is how many ranked points every ranking query keeps.
const topN = 10

// relTol is the oracle's relative tolerance against the literal evaluator.
const relTol = 1e-9

// spaceRequest is the explore-1m design space as a /v1/sweep body: GPT-3
// 175B on a 720x12 A100 machine (non-power-of-two degrees) with CP and VPP
// up to 4 and sequence parallelism, over 20 batch sizes that are multiples
// of 1440. The seed draws the link bandwidths and latencies.
func spaceRequest(seed int64) serve.SweepRequest {
	r := rand.New(rand.NewSource(seed))
	jitter := func(base float64) config.Quantity { return config.Quantity(base * (0.5 + r.Float64())) }
	batches := make([]int, 20)
	for i := range batches {
		batches[i] = 1440 * (i + 1)
	}
	return serve.SweepRequest{
		Model: config.Model{Preset: "gpt3-175b"},
		System: config.System{
			Name:          "720x12 a100",
			Accelerator:   config.Accelerator{Preset: "a100"},
			Nodes:         720,
			AccelsPerNode: 12,
			Intra:         config.Link{Name: "nvlink", LatencyS: jitter(2e-6), Bandwidth: jitter(2.4e12)},
			Inter:         config.Link{Name: "hdr", LatencyS: jitter(5e-6), Bandwidth: jitter(2e11)},
		},
		Training: config.Training{GlobalBatch: 1440},
		Sweep: serve.SweepParams{
			Batches: batches, MicrobatchTarget: 128,
			MaxCP: 4, MaxVPP: 4, SequenceParallel: true, Top: topN,
		},
	}
}

// space is the explore-1m space resolved for in-process calls.
type space struct {
	body []byte // the /v1/sweep request body
	comp *config.Components
	sc   explore.Scenario
	opt  explore.Options
}

// newSpace builds the seed's explore-1m request body, then resolves it the
// way a caller of the library would: decode, resolve the components, and
// size the cell enumeration.
func newSpace(seed int64) (*space, error) {
	body, err := json.Marshal(spaceRequest(seed))
	if err != nil {
		return nil, err
	}
	var req serve.SweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("space: %w", err)
	}
	doc := config.Document{Model: req.Model, System: req.System, Training: req.Training}
	comp, err := doc.Components()
	if err != nil {
		return nil, fmt.Errorf("space: %w", err)
	}
	s := &space{
		body: body,
		comp: comp,
		sc:   explore.Scenario{Model: &comp.Model, System: &comp.System, Training: comp.Training, Eff: comp.Eff},
		opt: explore.Options{
			Batches:          req.Sweep.Batches,
			MicrobatchTarget: req.Sweep.MicrobatchTarget,
			Enumerate: parallel.EnumerateOptions{
				PowerOfTwo:       req.Sweep.PowerOfTwo,
				SequenceParallel: req.Sweep.SequenceParallel,
				MaxCP:            req.Sweep.MaxCP,
				MaxVPP:           req.Sweep.MaxVPP,
			},
		},
	}
	n, err := explore.Cells(s.sc, s.opt)
	if err != nil {
		return nil, fmt.Errorf("space: %w", err)
	}
	if n != spaceCells {
		return nil, fmt.Errorf("space: %d cells, want %d", n, spaceCells)
	}
	return s, nil
}

// ranking is what a ranking query returns: the feasible-cell count and the
// leading points, detached from the sweep's large backing arrays.
type ranking struct {
	feasible int
	top      []explore.Point
}

// keepTop copies the first n ranked points with their breakdowns, so the
// full sweep's memory can be reclaimed.
func keepTop(points []explore.Point, n int) []explore.Point {
	if len(points) > n {
		points = points[:n]
	}
	out := make([]explore.Point, len(points))
	for i, p := range points {
		if p.Breakdown != nil {
			bd := *p.Breakdown
			p.Breakdown = &bd
		}
		out[i] = p
	}
	return out
}

// rankChunked ranks the space in cursor ranges of at most chunk cells and
// merges the per-range leaders with SortByTime. SortByTime is a total
// order, so the merged top-N equals a whole-space sweep's, at a fraction of
// its memory; the fleet oracle uses it.
func (s *space) rankChunked(chunk int64) (ranking, error) {
	var r ranking
	total, err := explore.Cells(s.sc, s.opt)
	if err != nil {
		return r, err
	}
	var cands []explore.Point
	for lo := int64(0); lo < total; lo += chunk {
		opt := s.opt
		opt.CursorLo, opt.CursorHi = lo, min(lo+chunk, total)
		pts, err := explore.SweepContext(context.Background(), s.sc, opt)
		if err != nil {
			return r, err
		}
		r.feasible += len(pts)
		explore.SortByTime(pts)
		cands = append(cands, keepTop(pts, topN)...)
	}
	explore.SortByTime(cands)
	r.top = keepTop(cands, topN)
	return r, nil
}

// checkRanking verifies a ranked feasible-point list: every point is
// evaluated and the rank keys never decrease.
func checkRanking(points []explore.Point) error {
	prev := math.Inf(-1)
	for i, p := range points {
		if p.Err != nil || p.Breakdown == nil {
			return fmt.Errorf("rank %d (%v): not evaluated", i, p)
		}
		k := float64(p.Breakdown.ExpectedTotalTime())
		if k < prev {
			return fmt.Errorf("rank %d (%v): key %.17g below its predecessor's %.17g", i, p, k, prev)
		}
		prev = k
	}
	return nil
}

// checkLiteral re-prices one ranked point with the audit package's literal
// evaluator and compares every breakdown component within relTol.
func (s *space) checkLiteral(p explore.Point) error {
	tr := s.comp.Training
	tr.Batch = parallel.Batch{Global: p.Batch, Microbatches: p.ChosenMicrobatches()}
	sc := audit.Scenario{Model: s.comp.Model, System: s.comp.System, Mapping: p.Mapping, Training: tr, Eff: s.comp.Eff}
	want, err := audit.Literal(&sc)
	if err != nil {
		return fmt.Errorf("literal rejects %v: %w", p, err)
	}
	return sameBreakdown(p.String(), p.Breakdown, want)
}

func sameBreakdown(id string, got, want *model.Breakdown) error {
	gc, wc := got.Components(), want.Components()
	for i := range gc {
		if !relClose(float64(gc[i].Time), float64(wc[i].Time)) {
			return fmt.Errorf("%s: %s = %.17g, literal %.17g", id, gc[i].Name, float64(gc[i].Time), float64(wc[i].Time))
		}
	}
	if !relClose(float64(got.TotalTime()), float64(want.TotalTime())) {
		return fmt.Errorf("%s: total %.17g, literal %.17g", id, float64(got.TotalTime()), float64(want.TotalTime()))
	}
	return nil
}

// relClose reports whether a and b agree within relTol.
func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// wirePoints renders ranked points exactly as /v1/sweep puts them on the
// wire, for byte comparison with a served ranking.
func wirePoints(points []explore.Point) ([]byte, error) {
	out := make([]serve.SweepPoint, len(points))
	for i, p := range points {
		sp := serve.SweepPoint{
			Mapping:      p.Mapping.Normalized().String(),
			Batch:        p.Batch,
			Microbatches: p.Microbatches,
		}
		if bd := p.Breakdown; bd != nil {
			sp.PerBatchS = float64(bd.PerBatch())
			sp.TotalDays = bd.TotalTime().Days()
			sp.TFLOPSPerGPU = bd.TFLOPSPerGPU()
			sp.Efficiency = bd.Efficiency
		}
		out[i] = sp
	}
	return json.Marshal(out)
}
