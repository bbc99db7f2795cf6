package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/serve"
)

// tracedRun is the --trace 1 run. It drives every layer once, whichever
// workload it was started for, so every traced run reports every per-layer
// metric: the explore pass, then the serve pass, then the fleet pass (which
// reuses the explore pass's EvaluateBatch cost). The started workload's
// pass also runs its untraced operations, for trace.overhead_ratio. Spans
// are written to .bench_build/trace at the end.
func tracedRun(cfg runConfig) (*outcome, error) {
	tr := newTracer()
	m := map[string]float64{}
	overhead := map[string]float64{}
	var err error
	if overhead["explore-1m"], err = exploreTraced(cfg, tr, m, cfg.workload == "explore-1m"); err != nil {
		return nil, fmt.Errorf("explore pass: %w", err)
	}
	if overhead["serve-mix"], err = serveTraced(cfg, tr, m, cfg.workload == "serve-mix"); err != nil {
		return nil, fmt.Errorf("serve pass: %w", err)
	}
	if overhead["fleet-1m"], err = fleetTraced(cfg, tr, m, cfg.workload == "fleet-1m"); err != nil {
		return nil, fmt.Errorf("fleet pass: %w", err)
	}
	m["trace.overhead_ratio"] = overhead[cfg.workload]

	spans := tr.snapshot()
	for _, w := range workloads {
		rows, ops, total := attribute(spans, w.Name+".")
		printAttribution(cfg.out, w.Name, rows, ops, total)
	}
	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "spans: %d written to %s\n", len(spans), path)
	return &outcome{metrics: m}, nil
}

// overheadOps is how many operations each side of trace.overhead_ratio
// takes its median over; traced and untraced operations alternate.
const overheadOps = 3

// opsPerSide is how many traced operations a pass runs: overheadOps for the
// started workload, whose pass also runs the untraced side, one otherwise.
func opsPerSide(primary bool) int {
	if primary {
		return overheadOps
	}
	return 1
}

// exploreTraced runs traced explore-1m query pairs, then the layer probe.
// When primary, each traced pair follows an untraced one, and it returns the
// ratio of the traced to the untraced median pair time.
func exploreTraced(cfg runConfig, tr *tracer, m map[string]float64, primary bool) (float64, error) {
	sp, err := newSpace(cfg.seed)
	if err != nil {
		return 0, err
	}
	e := &exploreRun{sp: sp, ops: cfg.ops}
	e.sweep() // warm-up
	var traced, untraced []float64
	for i := 0; i < opsPerSide(primary); i++ {
		if primary {
			r, b, _ := e.pair(nil)
			untraced = append(untraced, float64(r+b))
		}
		r, b, _ := e.pair(tr)
		traced = append(traced, float64(r+b))
	}
	if e.planned.CellsTotal == 0 {
		return 0, errors.New("a traced query failed")
	}
	runtime.GC()
	e.probeLayers(tr)
	runtime.GC()

	m["explore.sweep_ns_per_cell"] = median(tr.durations("explore.SweepContext")) / spaceCells
	m["explore.rank_ms"] = median(tr.durations("explore.SortByTime")) / 1e6
	m["plan.solve_ms"] = median(tr.durations("plan.Solve")) / 1e6
	m["plan.expanded_ratio"] = float64(e.planned.CellsExpanded) / float64(e.planned.CellsTotal)
	m["explore.feasible_ratio"] = float64(e.feasible) / spaceCells
	m["parallel.enumerate_ms"] = sum(tr.durations("parallel.Enumerate")) / 1e6
	m["explore.layout_ns_per_cell"] = sum(tr.durations("explore.Layout")) / spaceCells
	m["model.batch_ns_per_cell"] = sum(tr.durations("model.EvaluateBatch")) / spaceCells
	m["model.lower_bound_ns"] = sum(tr.durations("model.LowerBound")) / spaceCells
	if !primary {
		return 0, nil
	}
	return median(traced) / median(untraced), nil
}

// probeChunk is how many cells the layer probe hands one EvaluateBatch call.
const probeChunk = 8192

// probeLayers is one operation that calls the layers a ranking is built
// from, on one goroutine and each inside its own span: parallel.Enumerate,
// model.Compile, explore.Layout over the enumerated mappings,
// Session.EvaluateBatch over every laid-out cell in chunks, and the
// planner's bound, explore.CellLowerBound, on every cell. It checks that
// the batch evaluation keeps as many cells feasible as a ranking and that
// the bound is admissible at the ranking's leader.
func (e *exploreRun) probeLayers(tr *tracer) {
	e.ops.do(func() error {
		ot := tr.begin("probe.layers")
		defer ot.exit()
		sc, opt := e.sp.sc, e.sp.opt
		en := opt.Enumerate
		if en.MaxTP == 0 {
			en.MaxTP = sc.Model.Heads
		}
		if en.MaxPP == 0 {
			en.MaxPP = sc.Model.Layers
		}
		_ = ot.call("parallel.Enumerate", func() error {
			opt.Mappings = parallel.Enumerate(sc.System, en)
			return nil
		})
		err := ot.call("model.Compile", func() error {
			sess, err := model.Compile(sc.Model, sc.System, sc.Training, sc.Eff)
			if err == nil {
				sc.Session = sess.Prepare(opt.Batches...)
			}
			return err
		})
		if err != nil {
			return err
		}
		var pts []explore.Point
		err = ot.call("explore.Layout", func() error {
			pts, _, err = explore.Layout(&sc, opt)
			return err
		})
		if err != nil {
			return err
		}
		feasible, err := evaluateChunks(ot, pts, sc.Session)
		if err != nil {
			return err
		}
		if feasible != e.feasible {
			return fmt.Errorf("EvaluateBatch priced %d cells feasible, a ranking holds %d", feasible, e.feasible)
		}
		ot.enter("model.LowerBound")
		for i := range pts {
			_, _ = explore.CellLowerBound(&pts[i], sc.Session) // infeasible cells fail; the cost is what counts
		}
		ot.exit()
		lb, err := explore.CellLowerBound(&e.best, sc.Session)
		if err != nil {
			return err
		}
		if exact := float64(e.best.Breakdown.ExpectedTotalTime()); lb > exact {
			return fmt.Errorf("lower bound %.17g above the exact rank %.17g of %v", lb, exact, e.best)
		}
		return nil
	}, nil)
}

// evaluateChunks prices every laid-out cell not marked infeasible with
// Session.EvaluateBatch, probeChunk cells a call with a span around each
// call, and returns how many it priced feasible.
func evaluateChunks(ot *opTrace, pts []explore.Point, sess *model.Session) (int, error) {
	var in model.BatchInput
	var out model.BatchOutput
	feasible := 0
	for lo := 0; lo < len(pts); lo += probeChunk {
		in.Mappings, in.Batches, in.Microbatches = in.Mappings[:0], in.Batches[:0], in.Microbatches[:0]
		for i := lo; i < min(lo+probeChunk, len(pts)); i++ {
			if p := &pts[i]; p.Err == nil {
				in.Mappings = append(in.Mappings, p.Mapping)
				in.Batches = append(in.Batches, p.Batch)
				in.Microbatches = append(in.Microbatches, p.ChosenMicrobatches())
			}
		}
		if err := ot.call("model.EvaluateBatch", func() error { return sess.EvaluateBatch(in, &out) }); err != nil {
			return 0, err
		}
		for _, c := range out.Codes[:in.Len()] {
			if c.OK() {
				feasible++
			}
		}
	}
	return feasible, nil
}

// serveProbeSeconds is how long each serve-pass loop runs.
const serveProbeSeconds = 2 * time.Second

// pointRepeats is how often the single-point probes price each document.
const pointRepeats = 200

// serveTraced runs a traced closed loop of serve-mix requests, a short open
// loop, and direct probes of config parsing, compilation and single-point
// pricing over the serve-mix documents.
func serveTraced(cfg runConfig, tr *tracer, m map[string]float64, primary bool) (float64, error) {
	env, err := setupMix(cfg.seed)
	if err != nil {
		return 0, err
	}
	defer env.close()
	if err := env.ms.expect(); err != nil {
		return 0, err
	}
	o := cfg.ops
	env.closedLoop(o, nil, time.Second, false) // warm-up

	var ref tally
	if primary {
		ref, _ = env.closedLoop(o, nil, serveProbeSeconds, true)
	}
	before, err := scrape(env.client, env.srv.url)
	if err != nil {
		return 0, err
	}
	traced, _ := env.closedLoop(o, tr, serveProbeSeconds, true)
	after, err := scrape(env.client, env.srv.url)
	if err != nil {
		return 0, err
	}
	m["serve.evaluate_p50_us"] = median(traced.byKind[kindEvaluate])
	m["serve.infer_p50_us"] = median(traced.byKind[kindInfer])
	m["serve.reject_p50_us"] = median(traced.byKind[kindReject])
	hits := delta(before, after, "amped_session_cache_hits_total") + delta(before, after, "amped_session_cache_joins_total")
	lookups := hits + delta(before, after, "amped_session_cache_misses_total")
	m["serve.cache_hit_ratio"] = hits / lookups
	m["serve.shed_ratio"] = delta(before, after, "amped_requests_rejected_total") / float64(traced.n)
	printAttribution(cfg.out, "serve-mix server phases (amped_phase_duration_seconds, summed over requests)",
		phaseRows(before, after, traced.latency), traced.n, traced.latency)

	open := env.openLoop(o, openLoopRate, serveProbeSeconds)
	late := sortedCopy(open.late)
	q, _ := tailNote(len(late))
	m["loadgen.late_p99_ms"] = percentile(late, q)

	if err := probeDocs(env.ms, o, m); err != nil {
		return 0, err
	}
	if !primary {
		return 0, nil
	}
	return median(traced.all()) / median(ref.all()), nil
}

// probeDocs times config parsing, session compilation and single-point
// pricing directly on every valid serve-mix document, checking each priced
// point against the literal evaluator's answer.
func probeDocs(ms *mixSet, o *ops, m map[string]float64) error {
	var parse, compile []float64
	var pointT, inferT time.Duration
	var points, infers int
	for i := range ms.docs {
		d := &ms.docs[i]
		if d.kind == kindReject {
			continue
		}
		o.do(func() error {
			start := time.Now()
			doc, err := config.Parse(d.body)
			if err != nil {
				return err
			}
			if d.kind == kindInfer {
				comp, inf, batch, err := doc.InferenceScenario()
				if err != nil {
					return err
				}
				parse = append(parse, float64(time.Since(start))/1e3)
				start = time.Now()
				sess, err := comp.CompileInference(inf)
				if err != nil {
					return err
				}
				compile = append(compile, float64(time.Since(start))/1e6)
				var bd model.InferenceBreakdown
				mp := doc.Mapping.Resolve()
				start = time.Now()
				for k := 0; k < pointRepeats && err == nil; k++ {
					err = sess.EvaluateInferencePoint(mp, batch, &bd)
				}
				inferT += time.Since(start)
				infers += pointRepeats
				if err == nil && !relClose(float64(bd.PerToken()), d.want[1]) {
					err = fmt.Errorf("EvaluateInferencePoint per-token %v, literal %v", float64(bd.PerToken()), d.want[1])
				}
				return err
			}
			comp, err := doc.Components()
			if err != nil {
				return err
			}
			parse = append(parse, float64(time.Since(start))/1e3)
			start = time.Now()
			sess, err := comp.Compile()
			if err != nil {
				return err
			}
			compile = append(compile, float64(time.Since(start))/1e6)
			var bd model.Breakdown
			mp := doc.Mapping.Resolve()
			start = time.Now()
			for k := 0; k < pointRepeats && err == nil; k++ {
				err = sess.EvaluatePoint(mp, doc.Training.GlobalBatch, doc.Training.Microbatches, &bd)
			}
			pointT += time.Since(start)
			points += pointRepeats
			if err == nil && !relClose(float64(bd.TotalTime()), d.want[0]) {
				err = fmt.Errorf("EvaluatePoint total %v, literal %v", float64(bd.TotalTime()), d.want[0])
			}
			return err
		}, nil)
	}
	if points == 0 || infers == 0 {
		return errors.New("no document could be probed")
	}
	m["config.parse_us"] = median(parse)
	m["model.compile_ms"] = median(compile)
	m["model.point_ns"] = float64(pointT) / float64(points)
	m["model.infer_point_ns"] = float64(inferT) / float64(infers)
	return nil
}

// fleetTraced runs a traced synchronous sweep and durable job through the
// fleet, then probes one peer directly: a shard request for half the space
// and a peerless whole-space /v1/sweep.
func fleetTraced(cfg runConfig, tr *tracer, m map[string]float64, primary bool) (float64, error) {
	env, err := setupFleet(cfg.seed)
	if err != nil {
		return 0, err
	}
	defer env.f.stop()
	env.ops = cfg.ops
	if err := env.expect(); err != nil {
		return 0, err
	}
	coord := env.f.coord.url
	var syncs, jobs, traced, untraced []float64
	var journal, retries float64
	n := opsPerSide(primary)
	for i := 0; i < n; i++ {
		if primary {
			s, j, _ := env.pair(nil)
			untraced = append(untraced, float64(s+j))
		}
		before, err := scrape(env.f.client, coord)
		if err != nil {
			return 0, err
		}
		s, j, _ := env.pair(tr)
		after, err := scrape(env.f.client, coord)
		if err != nil {
			return 0, err
		}
		syncs, jobs, traced = append(syncs, float64(s)), append(jobs, float64(j)), append(traced, float64(s+j))
		journal += delta(before, after, "amped_journal_bytes_total")
		retries += delta(before, after, "amped_shard_retries_total")
		if i == n-1 {
			printAttribution(cfg.out, "fleet-1m coordinator phases (amped_phase_duration_seconds), last traced pair",
				phaseRows(before, after, s+j), 2, s+j)
		}
	}
	m["serve.job_overhead_ratio"] = median(jobs) / median(syncs)
	m["serve.journal_bytes_per_cell"] = journal / (float64(n) * spaceCells)
	m["serve.shard_retries_per_op"] = retries / float64(2*n)

	// One shard range sent straight to a peer: process CPU and bytes per cell.
	peer := env.f.peers[0].url
	half := int64(spaceCells / 2)
	var req serve.ShardRequest
	if err := json.Unmarshal(env.sp.body, &req.SweepRequest); err != nil {
		return 0, err
	}
	req.CursorLo, req.CursorHi = 0, half
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	var status int
	var data []byte
	cpu0 := cpuTime()
	env.ops.do(func() error {
		ot := tr.begin("probe.shard")
		defer ot.exit()
		status, data, err = post(env.f.client, ot, peer+"/v1/sweep/shard", body)
		return err
	}, func() error {
		if status != http.StatusOK {
			return fmt.Errorf("/v1/sweep/shard = %d: %.300s", status, data)
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var last serve.ShardChunk
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			return fmt.Errorf("/v1/sweep/shard: %w", err)
		}
		if !last.Done {
			return fmt.Errorf("/v1/sweep/shard stream ended without completing: %s", last.Error)
		}
		return nil
	})
	shardNs := float64(cpuTime()-cpu0) / float64(half)
	m["serve.shard_ns_per_cell"] = shardNs
	m["serve.shard_bytes_per_cell"] = float64(len(data)) / float64(half)
	m["serve.shard_eval_share"] = m["model.batch_ns_per_cell"] / shardNs

	// The same space as a peerless /v1/sweep: one server, no fan-out.
	d := env.ops.do(func() error {
		ot := tr.begin("probe.local_sweep")
		defer ot.exit()
		status, data, err = post(env.f.client, ot, peer+"/v1/sweep", env.sp.body)
		return err
	}, func() error {
		if status != http.StatusOK {
			return fmt.Errorf("peerless /v1/sweep = %d: %.300s", status, data)
		}
		return env.checkSweep("peerless /v1/sweep", data)
	})
	m["serve.local_sweep_ns_per_cell"] = float64(d) / spaceCells
	if !primary {
		return 0, nil
	}
	return median(traced) / median(untraced), nil
}
