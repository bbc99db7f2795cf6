package model

import (
	"amped/internal/transformer"
	"amped/internal/units"
)

// LayerProfile is one transformer block's share of the per-batch time.
type LayerProfile struct {
	// Layer is the block index.
	Layer int
	// MoE flags Mixture-of-Experts blocks.
	MoE bool
	// Compute is the block's forward+backward+update compute time on the
	// critical path (already divided by the worker count).
	Compute units.Seconds
	// Comm is the block's exposed forward and backward communication time:
	// its share of the TP, PP and CP terms, its MoE all-to-all, and the
	// ZeRO overhead on both.
	Comm units.Seconds
	// GradAR is the block's exposed gradient all-reduce time.
	GradAR units.Seconds
}

// Total sums the profile's components.
func (p LayerProfile) Total() units.Seconds { return p.Compute + p.Comm + p.GradAR }

// ProfileLayers evaluates the model layer by layer, returning each block's
// contribution to the per-batch time — the view that locates *which* layers
// (dense vs MoE, attention-heavy vs MLP-heavy) dominate a configuration.
// It prices the point on a compiled Session and splits that breakdown over
// the blocks, so the profile sums to the breakdown's per-batch time minus
// two things that are not a block's: the pipeline bubble (a schedule
// property) and, under IncludeEmbedding, the embedding and logit
// projection's compute, weight update and gradient all-reduce.
func (e *Estimator) ProfileLayers() ([]LayerProfile, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	s, err := Compile(e.Model, e.System, e.Training, e.Eff)
	if err != nil {
		return nil, err
	}
	var bd Breakdown
	bt := e.Training.Batch
	if err := s.EvaluatePoint(e.Mapping, bt.Global, bt.Microbatches, &bd); err != nil {
		return nil, err
	}
	r := s.prepareRun(e.Mapping)
	m := s.model
	tr := &s.tr

	// Forward communication is uniform across blocks except for the MoE
	// all-to-all, which only MoE blocks carry; the ZeRO overhead scales
	// every block's share alike.
	zeroF := 1 + tr.ZeROOverhead
	perLayerComm := float64(bd.TPIntraComm+bd.TPInterComm+bd.PPComm+bd.CPComm) / s.layersF
	var perMoE float64
	if s.moeLayers > 0 {
		perMoE = float64(bd.MoEComm) / s.moeLayers
	}

	// The gradient all-reduce: one latency term plus the block's own
	// (expert-sharded) parameter shard per block, scaled like the
	// breakdown's by any gradient overlap.
	var gradScale, shard float64
	if g := r.gradIntra + r.gradInter; g > 0 {
		gradScale = float64(bd.GradIntraComm+bd.GradInterComm) / g
		shard = 1 / float64(r.mpn.TP()*r.mpn.PP())
	}
	gradFor := func(l int) float64 {
		if gradScale == 0 {
			return 0
		}
		ng := m.LayerParams(l)
		if r.moeActive && m.IsMoELayer(l) {
			shared := m.AttentionNormParams()
			ng = shared + (ng-shared)/float64(m.Experts)
		}
		ng *= shard
		return gradScale * (s.allReduceSum(r.mpn.DPIntra, 1, ng, s.intra) +
			s.allReduceSum(r.mpn.DPInter, 1, ng, s.inter))
	}

	// Per-sublayer compute at the point's efficiency; under roofline
	// pricing each sublayer costs max(compute, bytes/BW), which sums to the
	// session's class-level maxima because every class member is an
	// identical layer.
	cMAC := 1 / (s.peakMAC * bd.Efficiency)
	workers := float64(bd.Workers)
	out := make([]LayerProfile, m.Layers)
	for l := range out {
		var uf float64
		for _, op := range m.LayerOps(l, bt.Global) {
			t := float64(op.MACs)*cMAC*s.macScale + float64(op.Nonlin)*s.cNonlin*s.nonlinScale
			if s.roofline {
				actBytes := float64(op.ActElems) * s.actBytesF
				if op.Sublayer == transformer.Norms && !r.mpn.SequenceParallel {
					actBytes *= r.tpF
				}
				if mem := (actBytes + float64(op.WeightElems)*s.paramBytesF) * s.invMemBW; mem > t {
					t = mem
				}
			}
			uf += t
		}
		uw := m.LayerParams(l) * cMAC * s.macScale
		comm := perLayerComm
		if m.IsMoELayer(l) {
			comm += perMoE
		}
		out[l] = LayerProfile{
			Layer:   l,
			MoE:     m.IsMoELayer(l),
			Compute: units.Seconds((1+tr.BackwardComputeFactor)*uf/workers + uw/workers),
			Comm:    units.Seconds(zeroF * comm),
			GradAR:  units.Seconds(gradFor(l)),
		}
	}
	return out, nil
}
