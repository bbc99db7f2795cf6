package model

import (
	"fmt"
	"math"

	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/topology"
	"amped/internal/transformer"
	"amped/internal/units"
)

// The pricing kernel. Every training and serving path — EvaluatePoint,
// LowerBound, EvaluateBatch, EvaluateInferencePoint and ProfileLayers —
// prices a point the same way: prepareRun resolves everything that depends
// only on the mapping, forwardCompute and forwardComm price one forward
// pass, and price assembles the training breakdown. One copy of each
// equation keeps the paths bit-identical by construction.

// seqLenNoun names the sequence the CP degree is bounded by in training.
const seqLenNoun = "sequence length"

// checkFit is the model-fit check: TP within the head count, PP within the
// layer count, CP within the sequence (seqNoun names it in the message) and
// the interleaved-pipeline rules.
func checkFit(m *transformer.Model, mpn parallel.Mapping, seqNoun string) error {
	pp := mpn.PP()
	if tp := mpn.TP(); tp > m.Heads {
		return fmt.Errorf("model: TP degree %d exceeds %d attention heads", tp, m.Heads)
	}
	if pp > m.Layers {
		return fmt.Errorf("model: PP degree %d exceeds %d layers", pp, m.Layers)
	}
	if cp := mpn.CP(); cp > m.SeqLen {
		return fmt.Errorf("model: CP degree %d exceeds %s %d", cp, seqNoun, m.SeqLen)
	}
	if vpp := mpn.VPP; vpp > 1 && pp <= 1 {
		return fmt.Errorf("model: virtual pipeline depth %d requires PP > 1", vpp)
	} else if vpp > 1 && pp*vpp > m.Layers {
		return fmt.Errorf("model: PP %d x VPP %d exceeds %d layers", pp, vpp, m.Layers)
	}
	return nil
}

// mappingRun holds everything that depends on the mapping alone, resolved
// once per run of consecutive points sharing a mapping: validation
// verdicts, the normalized degrees, the collective-topology constants of
// Eq. 6 and the fully batch-independent gradient all-reduce (Eq. 10–11) and
// reliability expectation.
type mappingRun struct {
	err          error // mapping does not tile the system (poisons the run)
	fitErr       error // checkFit's verdict
	mpn          parallel.Mapping
	workers      float64
	workersInt   int
	pp           int
	dp           int
	tpF          float64 // total TP degree, the roofline norm-class factor
	cpF          float64 // total CP degree (1.0 when disengaged)
	vppF         float64 // virtual-pipeline chunk count (1.0 when plain)
	rPP          float64 // BubbleRatio · (N_PP − 1), Eq. 8's run constant
	moeActive    bool
	ppIntraOn    bool
	ppInterOn    bool
	tpIntraOn    bool
	tpInterOn    bool
	cpOn         bool
	cpIntraOn    bool
	cpInterOn    bool
	tpIntraLatSt float64 // link latency · topology steps, hoisted Eq. 6 term
	tpIntraFac   float64
	tpInterLatSt float64
	tpInterFac   float64
	cpIntraLatSt float64 // same hoist for the context-parallel K/V exchange
	cpIntraFac   float64
	cpInterLatSt float64
	cpInterFac   float64
	gradIntra    float64 // Eq. 10/11 are batch-independent: hoisted whole
	gradInter    float64
	rel          faults.Expectation
}

// prepareRun validates a mapping once and precomputes its run constants.
// A prefill session's runs stop after the forward-pass constants: serving
// prices no gradient all-reduce and no failures.
func (s *Session) prepareRun(mp parallel.Mapping) mappingRun {
	var r mappingRun
	if err := mp.Validate(s.sys); err != nil {
		r.err = err
		return r
	}
	mpn := mp.Normalized()
	seqNoun := seqLenNoun
	if s.prefill {
		// The prefill model's SeqLen is the prompt: context parallelism
		// shards prompt tokens, so the prompt bounds its degree.
		seqNoun = "prompt length"
	}
	r.fitErr = checkFit(s.model, mpn, seqNoun)
	r.mpn = mpn
	r.workersInt = mpn.Workers()
	r.workers = float64(r.workersInt)
	r.pp = mpn.PP()
	r.dp = mpn.DP()
	r.tpF = float64(mpn.TP())
	r.cpF = float64(mpn.CP())
	r.vppF = float64(mpn.VPP)
	if r.pp > 1 {
		r.rPP = s.tr.BubbleRatio * float64(r.pp-1)
		r.ppIntraOn = mpn.PPIntra > 1
		r.ppInterOn = mpn.PPInter > 1
	}
	r.moeActive = s.model.MoE() && mpn.ExpertParallel
	r.tpIntraOn, r.tpIntraLatSt, r.tpIntraFac = s.collective(mpn.TPIntra, s.intra)
	r.tpInterOn, r.tpInterLatSt, r.tpInterFac = s.collective(mpn.TPInter, s.inter)
	if mpn.CP() > 1 {
		r.cpOn = true
		r.cpIntraOn, r.cpIntraLatSt, r.cpIntraFac = s.collective(mpn.CPIntra, s.intra)
		r.cpInterOn, r.cpInterLatSt, r.cpInterFac = s.collective(mpn.CPInter, s.inter)
	}
	if s.prefill {
		return r
	}
	if r.dp > 1 {
		shard := 1 / float64(mpn.TP()*mpn.PP())
		ngSum := s.gradParamsPlain
		if r.moeActive {
			ngSum = s.gradParamsEP
		}
		ngSum = (ngSum + s.gradEmbParams) * shard
		r.gradIntra = s.allReduceSum(mpn.DPIntra, s.gradLatCount, ngSum, s.intra)
		r.gradInter = s.allReduceSum(mpn.DPInter, s.gradLatCount, ngSum, s.inter)
	}
	if s.relSpec != nil {
		nodes := faults.NodesFor(r.workersInt, s.accelsPerNode)
		r.rel = s.relSpec.Expect(faults.Cluster{
			Workers: r.workersInt,
			Nodes:   nodes,
			Links:   nodes * s.nicsPerNode,
		}, s.ckptStateBytes)
	}
	return r
}

// collective resolves the Eq. 6 all-reduce constants for a group of n
// workers on one link level: whether it communicates at all, the latency
// term (link latency · topology steps) and the volume factor.
func (s *Session) collective(n int, link hardware.Link) (on bool, latSteps, factor float64) {
	if n <= 1 {
		return false, 0, 0
	}
	return true, float64(link.Latency) * float64(topology.Steps(s.arKind, n)), topology.Factor(s.arKind, n)
}

// allReduceSum is the Eq. 10/11 all-reduce of elems gradient elements over
// n workers on the link, with latTerms latency terms (one per layer, plus
// one for the embedding when it is included).
func (s *Session) allReduceSum(n int, latTerms, elems float64, link hardware.Link) float64 {
	if n <= 1 {
		return 0
	}
	steps := float64(topology.Steps(s.arKind, n))
	factor := topology.Factor(s.arKind, n)
	return float64(link.Latency)*steps*latTerms +
		elems*s.gradBits/float64(link.Bandwidth)*factor
}

// forwardCompute is Eq. 2–4 for one forward pass over an aggregate: the
// per-layer, per-sublayer double sum factors into the aggregate's MAC and
// nonlinear-op totals times the point's reciprocal throughputs — or, under
// roofline pricing, the per-class max of compute and bandwidth time.
func (s *Session) forwardCompute(agg *batchAgg, cMAC float64, r *mappingRun) float64 {
	if s.roofline {
		return s.rooflineUF(agg, cMAC, r.tpF, r.mpn.SequenceParallel)
	}
	return agg.macSum*cMAC*s.macScale + agg.nonlinSum*s.cNonlin*s.nonlinScale
}

// commTerms is one forward pass's communication, summed over the layers, in
// seconds. ppHop is the cost of one pipeline-boundary crossing; each caller
// applies its own crossing count.
type commTerms struct {
	tpIntra, tpInter, ppHop, cp, moe float64
}

// forwardComm prices Eq. 5–7 and 9 for one forward pass. bEff is the
// paper's effective batch — the sequences one pipeline step carries — and
// width the activation elements per sequence: s·h for training and
// prefill, h for a decode step. With context parallelism every rank holds
// 1/N_CP of the tokens, so every activation volume shrinks by cpF (an exact
// no-op at CP = 1). With relaxed set the MoE term stays exactly 0.0, the
// admissible lower bound's relaxation.
func (s *Session) forwardComm(r *mappingRun, bEff, width float64, relaxed bool) commTerms {
	var c commTerms
	bwIntra := float64(s.intra.Bandwidth)
	bwInter := float64(s.inter.Bandwidth)

	// Eq. 6: two hierarchical all-reduces of b·s·h activations per layer
	// (N_act,TP = 2bsh).
	nActTP := 2 * bEff * width / r.cpF
	if r.tpIntraOn {
		c.tpIntra = s.layersF * (r.tpIntraLatSt + nActTP*s.actBits/bwIntra*r.tpIntraFac)
	}
	if r.tpInterOn {
		c.tpInter = s.layersF * (r.tpInterLatSt + nActTP*s.actBits/bwInter*r.tpInterFac)
	}

	// Eq. 7: one boundary tensor per hop; the 1/L spreading cancels against
	// the layer sum, and the pipeline runs at its slowest hop.
	if r.pp > 1 {
		nActPP := bEff * width / r.cpF
		var ppI, ppE float64
		if r.ppIntraOn {
			ppI = float64(s.intra.Latency) + nActPP*s.actBits/bwIntra
		}
		if r.ppInterOn {
			ppE = float64(s.inter.Latency) + nActPP*s.actBits/bwInter
		}
		c.ppHop = max2(ppI, ppE)
	}

	// Context-parallel K/V exchange: once per layer each rank passes its
	// 2·b·(s/N_CP)·kvFrac·h key/value shard around the CP group,
	// hierarchically like the TP all-reduce. Under GQA the K/V tensors are
	// only kvFrac·h wide; gradient synchronization across the CP group is
	// not modeled separately.
	if r.cpOn {
		nActCP := 2 * bEff * width * s.kvFrac / r.cpF
		var cpI, cpE float64
		if r.cpIntraOn {
			cpI = r.cpIntraLatSt + nActCP*s.actBits/bwIntra*r.cpIntraFac
		}
		if r.cpInterOn {
			cpE = r.cpInterLatSt + nActCP*s.actBits/bwInter*r.cpInterFac
		}
		c.cp = s.layersF * (cpI + cpE)
	}

	// Eq. 9: two all-to-alls per MoE layer across the node groups.
	if r.moeActive && !relaxed {
		c.moe = s.moeLayers * (s.moeLatTerm + bEff*width*s.moeVolCoeff/r.cpF)
	}
	return c
}

// price evaluates one training point of a prepared run — global batch g and
// raw microbatch count nub (0 derives the default) — into out. Failures
// leave out untouched and return the same code and message for every path;
// a non-finite result keeps the partial breakdown. aggs memoizes the
// per-batch aggregates of a batched call; nil reads the session's tables.
func (s *Session) price(r *mappingRun, g, nub int, aggs *aggCache, relaxed bool, out *Breakdown) (PointCode, error) {
	if r.err != nil {
		return PointBadMapping, r.err
	}
	// Inline of parallel.Batch.Validate + MicrobatchesOrDefault +
	// Microbatch over the run's pre-normalized degrees. The batch is checked
	// before the model-fit bounds, so a point failing both reports the batch
	// error; failures take the slow path through the real Validate for its
	// message.
	var per, nubD int
	bad := g <= 0 || nub < 0 || g%r.dp != 0
	if !bad {
		per = g / r.dp
		nubD = nub
		if nubD <= 0 {
			nubD = r.pp
		}
		if nubD > per && per > 0 {
			nubD = per
		}
		if nubD < 1 {
			nubD = 1
		}
		bad = per%nubD != 0
	}
	if bad {
		return PointBadBatch, parallel.Batch{Global: g, Microbatches: nub}.Validate(r.mpn)
	}
	if r.fitErr != nil {
		return PointBadModelFit, r.fitErr
	}

	tr := &s.tr
	ub := float64(per) / float64(nubD)
	eff := s.eff.Eff(ub)

	cMAC := 1 / (s.peakMAC * eff)
	var agg batchAgg
	if aggs != nil {
		agg = aggs.get(s, g)
	} else {
		agg = s.agg(g)
	}
	ufTotal := s.forwardCompute(&agg, cMAC, r)
	uwTotal := s.updateParams * cMAC * s.macScale
	ubTotal := tr.BackwardComputeFactor * ufTotal

	// Eq. 5–7, 9 on the per-point microbatch; interleaved schedules cross
	// the stage boundary VPP times per microbatch.
	c := s.forwardComm(r, ub, s.seqHidden, relaxed)
	ppComm := c.ppHop * r.vppF
	fwdTotal := c.tpIntra + c.tpInter + ppComm + c.cp + c.moe

	gradIntra, gradInter := r.gradIntra, r.gradInter
	if o := tr.GradOverlap; o > 0 {
		if sum := gradIntra + gradInter; sum > 0 {
			scale := gradOverlapScale(o, sum, ubTotal/r.workers, s.gradLatCount)
			gradIntra *= scale
			gradInter *= scale
		}
	}

	// Eq. 8 over the hoisted R·(N_PP−1); the interleaved schedule shrinks
	// the bubble by the chunk count.
	var bubble float64
	if r.pp > 1 {
		step := (ufTotal+ubTotal)/r.workers + s.commScale*fwdTotal
		bubble = r.rPP / float64(nubD) * step / r.vppF
	}

	*out = Breakdown{
		ComputeForward:  units.Seconds(ufTotal / r.workers),
		ComputeBackward: units.Seconds(ubTotal / r.workers),
		WeightUpdate:    units.Seconds(uwTotal / r.workers),
		TPIntraComm:     units.Seconds(s.commScale * c.tpIntra),
		TPInterComm:     units.Seconds(s.commScale * c.tpInter),
		PPComm:          units.Seconds(s.commScale * ppComm),
		CPComm:          units.Seconds(s.commScale * c.cp),
		MoEComm:         units.Seconds(s.commScale * c.moe),
		ZeROComm:        units.Seconds(s.zeroScale * fwdTotal),
		GradIntraComm:   units.Seconds(gradIntra),
		GradInterComm:   units.Seconds(gradInter),
		Bubble:          units.Seconds(bubble),
		Microbatch:      ub,
		Efficiency:      eff,
		Workers:         r.workersInt,
		NumBatches:      tr.NumBatches,
		ModelFLOPs:      agg.flops,
		Reliability:     r.rel,
	}
	if !finite(out) {
		return PointNonFinite, errNonFinite
	}
	return PointOK, nil
}

// gradOverlapScale returns the factor in [0,1] by which the exposed
// gradient all-reduce shrinks when a fraction o of its buckets overlaps
// with backward compute. The all-reduce is modeled as `buckets` equal
// serialized buckets of g = total/buckets each; backward produces bucket i's
// gradients at i·(tb/buckets). The first m = ceil(o·buckets) buckets drain
// concurrently with backward — a two-server pipeline whose makespan is
// max(rel + m·g, m·rel + g) (the linear objective peaks at an endpoint) —
// and the rest serialize after whichever of that drain or the backward pass
// finishes last. Exposed time is the makespan beyond tb; communication that
// outlasts compute stays exposed even at o = 1.
func gradOverlapScale(o, total, tb, buckets float64) float64 {
	g := total / buckets
	m := math.Ceil(o * buckets)
	rel := tb / buckets
	var finishO float64
	if m > 0 {
		finishO = max2(rel+m*g, m*rel+g)
	}
	makespan := max2(finishO, tb) + (buckets-m)*g
	return (makespan - tb) / total
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
