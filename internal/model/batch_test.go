package model

import (
	"testing"

	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// batchTrainings extends the equivalence recipes with a reliability-enabled
// one, so the batch path's hoisted failure expectation is golden-tested too,
// and a roofline recipe with gradient and communication overlap, so the
// per-class roofline maxima and the bucketed gradient-overlap scale are
// covered as well.
func batchTrainings() []Training {
	trs := equivTrainings()
	trs = append(trs,
		Training{Reliability: testRelSpec(), NumBatches: 100},
		Training{Roofline: true, GradOverlap: 0.8, CommOverlap: 0.3},
	)
	return trs
}

// TestEvaluateBatchBitIdenticalToScalar is the golden gate for the batched
// path: over every model × training recipe × enumerated mapping × batch —
// including non-dividing batches, TP/PP bound violations and mappings that
// do not tile the system — EvaluateBatch must reproduce EvaluatePoint
// bit-for-bit: same breakdown bits on success, same error message on
// failure. Both the Prepared and the unprepared (dyn side-table) aggregate
// paths are exercised, over the plain mapping space and over one widened
// with context parallelism, interleaved pipelines and sequence parallelism.
// LowerBound is checked against the same points: never above the rank, and
// bit-equal to it wherever the MoE all-to-all term is zero.
func TestEvaluateBatchBitIdenticalToScalar(t *testing.T) {
	gqa, err := transformer.Variant{KVHeads: 8}.Apply(transformer.Megatron145B())
	if err != nil {
		t.Fatal(err)
	}
	models := []transformer.Model{
		transformer.Megatron145B(),
		transformer.GLaM(), // MoE: Eq. 9 and expert-sharded Eq. 11
		gqa,                // GQA-8: the K/V-width CP exchange
	}
	sys := hardware.System{
		Name: "batch-equiv", Accel: hardware.NvidiaA100(),
		Nodes: 16, AccelsPerNode: 8,
		Intra:       hardware.NVLinkA100(),
		Inter:       hardware.InfinibandHDR(),
		NICsPerNode: 8,
	}
	// 512/768 exercise pow2 and non-pow2 per-replica shapes; 8191 is prime,
	// so most mappings reject it — the error columns must agree too.
	batches := []int{512, 768, 8191}

	var priced, exactBounds int
	for _, m := range models {
		m := m
		for _, wide := range []bool{false, true} {
			opts := parallel.EnumerateOptions{MaxTP: m.Heads, MaxPP: m.Layers, ExpertParallel: m.MoE()}
			if wide {
				opts.MaxCP, opts.MaxVPP, opts.SequenceParallel = 4, 2, true
			}
			mappings := parallel.Enumerate(&sys, opts)
			// A mapping that does not tile the system, spliced mid-stream so a
			// poisoned run sits between healthy ones.
			broken := parallel.Mapping{TPIntra: 4, DPInter: 128}
			mappings = append(mappings[:len(mappings)/2],
				append([]parallel.Mapping{broken}, mappings[len(mappings)/2:]...)...)

			for ti, tr := range batchTrainings() {
				for _, prepared := range []bool{true, false} {
					sess, err := Compile(&m, &sys, tr, nil)
					if err != nil {
						t.Fatal(err)
					}
					if prepared {
						sess.Prepare(batches...)
					}

					var in BatchInput
					for _, mp := range mappings {
						for _, b := range batches {
							in.Mappings = append(in.Mappings, mp)
							in.Batches = append(in.Batches, b)
							in.Microbatches = append(in.Microbatches, 0)
						}
					}
					var out BatchOutput
					if err := sess.EvaluateBatch(in, &out); err != nil {
						t.Fatal(err)
					}

					var want Breakdown
					for i := range in.Mappings {
						priced++
						scalarErr := sess.EvaluatePoint(in.Mappings[i], in.Batches[i], in.Microbatches[i], &want)
						lb, lbErr := sess.LowerBound(in.Mappings[i], in.Batches[i], in.Microbatches[i])
						id := in.Mappings[i].String()
						if scalarErr != nil {
							if out.Codes[i] == PointOK {
								t.Fatalf("%s tr%d %s B=%d: scalar failed (%v), batch succeeded",
									m.Name, ti, id, in.Batches[i], scalarErr)
							}
							if out.Errs[i] == nil || out.Errs[i].Error() != scalarErr.Error() {
								t.Fatalf("%s tr%d %s B=%d: error mismatch: scalar=%q batch=%v",
									m.Name, ti, id, in.Batches[i], scalarErr, out.Errs[i])
							}
							if lbErr == nil || lbErr.Error() != scalarErr.Error() {
								t.Fatalf("%s tr%d %s B=%d: error mismatch: scalar=%q bound=%v",
									m.Name, ti, id, in.Batches[i], scalarErr, lbErr)
							}
							continue
						}
						if !out.Codes[i].OK() {
							t.Fatalf("%s tr%d %s B=%d: scalar succeeded, batch code=%v err=%v",
								m.Name, ti, id, in.Batches[i], out.Codes[i], out.Errs[i])
						}
						if out.Breakdowns[i] != want {
							t.Fatalf("%s tr%d %s B=%d: batch breakdown diverged bit-wise from scalar:\nbatch:  %+v\nscalar: %+v",
								m.Name, ti, id, in.Batches[i], out.Breakdowns[i], want)
						}
						if got := float64(want.PerBatch()); out.PerBatchSeconds[i] != got {
							t.Fatalf("%s tr%d %s B=%d: PerBatchSeconds column %v != %v",
								m.Name, ti, id, in.Batches[i], out.PerBatchSeconds[i], got)
						}
						rank := float64(want.ExpectedTotalTime())
						if out.ExpectedTotalSeconds[i] != rank {
							t.Fatalf("%s tr%d %s B=%d: ExpectedTotalSeconds column %v != %v",
								m.Name, ti, id, in.Batches[i], out.ExpectedTotalSeconds[i], rank)
						}
						if lbErr != nil {
							t.Fatalf("%s tr%d %s B=%d: scalar succeeded, bound failed: %v",
								m.Name, ti, id, in.Batches[i], lbErr)
						}
						if lb > rank {
							t.Fatalf("%s tr%d %s B=%d: bound %.17g above rank %.17g",
								m.Name, ti, id, in.Batches[i], lb, rank)
						}
						if want.MoEComm == 0 {
							exactBounds++
							if lb != rank {
								t.Fatalf("%s tr%d %s B=%d: bound %.17g != rank %.17g with no MoE term",
									m.Name, ti, id, in.Batches[i], lb, rank)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d priced cells, %d exact-bound checks", priced, exactBounds)
}

// TestEvaluateBatchExplicitMicrobatches pins the microbatch column: raw
// N_ub choices (valid, defaulted and non-dividing) must match the scalar
// path point for point.
func TestEvaluateBatchExplicitMicrobatches(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	in := BatchInput{
		Mappings:     []parallel.Mapping{mp, mp, mp, mp},
		Batches:      []int{8192, 8192, 8192, 8192},
		Microbatches: []int{0, 1, 64, 3}, // 3 does not divide the per-replica batch
	}
	var out BatchOutput
	if err := sess.EvaluateBatch(in, &out); err != nil {
		t.Fatal(err)
	}
	var want Breakdown
	for i := range in.Mappings {
		scalarErr := sess.EvaluatePoint(in.Mappings[i], in.Batches[i], in.Microbatches[i], &want)
		if (scalarErr == nil) != out.Codes[i].OK() {
			t.Fatalf("point %d: scalar err %v, batch code %v", i, scalarErr, out.Codes[i])
		}
		if scalarErr == nil && out.Breakdowns[i] != want {
			t.Fatalf("point %d: breakdown diverged", i)
		}
	}
	if out.Codes[3] != PointBadBatch {
		t.Errorf("non-dividing microbatch count: code = %v, want %v", out.Codes[3], PointBadBatch)
	}
}

// TestEvaluateBatchColumnValidation pins the call-level error contract:
// mismatched columns are rejected before any evaluation, a nil microbatch
// column means "derive the default", and output columns are recycled
// without leaking stale results.
func TestEvaluateBatchColumnValidation(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	sess, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	var out BatchOutput
	if err := sess.EvaluateBatch(BatchInput{
		Mappings: []parallel.Mapping{mp}, Batches: []int{8192, 4096},
	}, &out); err == nil {
		t.Error("mismatched mapping/batch columns accepted")
	}
	if err := sess.EvaluateBatch(BatchInput{
		Mappings:     []parallel.Mapping{mp},
		Batches:      []int{8192},
		Microbatches: []int{0, 0},
	}, &out); err == nil {
		t.Error("mismatched microbatch column accepted")
	}
	if err := sess.EvaluateBatch(BatchInput{Mappings: []parallel.Mapping{mp}, Batches: []int{8192}}, nil); err == nil {
		t.Error("nil output accepted")
	}

	// Fill with a success, then recycle the output for a failing point: the
	// stale breakdown must be zeroed.
	if err := sess.EvaluateBatch(BatchInput{
		Mappings: []parallel.Mapping{mp}, Batches: []int{8192},
	}, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Codes[0].OK() || out.Breakdowns[0].PerBatch() <= 0 {
		t.Fatalf("valid point failed: code=%v err=%v", out.Codes[0], out.Errs[0])
	}
	if err := sess.EvaluateBatch(BatchInput{
		Mappings: []parallel.Mapping{mp}, Batches: []int{8191},
	}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Codes[0] != PointBadBatch {
		t.Fatalf("code = %v, want %v", out.Codes[0], PointBadBatch)
	}
	if out.Breakdowns[0] != (Breakdown{}) || out.PerBatchSeconds[0] != 0 {
		t.Error("recycled output leaked the previous chunk's breakdown")
	}

	// Empty input is a no-op, not an error.
	if err := sess.EvaluateBatch(BatchInput{}, &out); err != nil {
		t.Errorf("empty input: %v", err)
	}
	if len(out.Codes) != 0 {
		t.Errorf("empty input left %d codes", len(out.Codes))
	}
}

// TestEvaluateBatchReliabilityGating pins the hoisted reliability branch: a
// nil spec leaves every breakdown's expectation zero (legacy path), a
// non-nil one reproduces the scalar expectation bit-for-bit.
func TestEvaluateBatchReliabilityGating(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	mp := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	in := BatchInput{Mappings: []parallel.Mapping{mp}, Batches: []int{8192}}

	plain, err := Compile(&m, &sys, Training{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out BatchOutput
	if err := plain.EvaluateBatch(in, &out); err != nil {
		t.Fatal(err)
	}
	if out.Breakdowns[0].Reliability != (faults.Expectation{}) {
		t.Error("nil reliability spec produced a non-zero expectation")
	}

	rel, err := Compile(&m, &sys, Training{Reliability: testRelSpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.EvaluateBatch(in, &out); err != nil {
		t.Fatal(err)
	}
	var want Breakdown
	if err := rel.EvaluatePoint(mp, 8192, 0, &want); err != nil {
		t.Fatal(err)
	}
	if out.Breakdowns[0].Reliability != want.Reliability {
		t.Errorf("batch expectation %+v != scalar %+v", out.Breakdowns[0].Reliability, want.Reliability)
	}
	if out.ExpectedTotalSeconds[0] != float64(want.ExpectedTotalTime()) {
		t.Error("ExpectedTotalSeconds column ignored the failure inflation")
	}
}
