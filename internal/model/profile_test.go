package model

import (
	"math"
	"testing"

	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/precision"
	"amped/internal/transformer"
)

// TestProfileSumsToBreakdown requires the layer profiles to add up to the
// breakdown they split: compute, every exposed communication term (ZeRO
// overhead included) and the gradient all-reduce, and in total the
// per-batch time minus the bubble (a schedule property, not a layer's) —
// under every recipe knob that rescales a breakdown term.
func TestProfileSumsToBreakdown(t *testing.T) {
	gqa, err := transformer.Variant{KVHeads: 8}.Apply(transformer.Megatron145B())
	if err != nil {
		t.Fatal(err)
	}
	pp2 := parallel.Mapping{TPIntra: 8, PPInter: 2, DPInter: 64}
	cases := []struct {
		name string
		tr   Training
		m    *transformer.Model
		mp   parallel.Mapping
	}{
		{"default", Training{}, nil, pp2},
		{"comm overlap", Training{CommOverlap: 0.5}, nil, pp2},
		{"grad overlap", Training{GradOverlap: 0.5}, nil, pp2},
		{"ZeRO overhead", Training{ZeROOverhead: 0.5}, nil, pp2},
		{"GQA-8 + CP2", Training{}, &gqa, parallel.Mapping{TPIntra: 8, PPInter: 2, CPInter: 2, DPInter: 32}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := cs1Estimator(c.mp, 8192)
			e.Training = c.tr
			e.Training.Batch = parallel.Batch{Global: 8192}
			if c.m != nil {
				e.Model = c.m
			}
			bd, err := e.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			profiles, err := e.ProfileLayers()
			if err != nil {
				t.Fatal(err)
			}
			if len(profiles) != 80 {
				t.Fatalf("profiles = %d", len(profiles))
			}
			var compute, comm, grad, total float64
			for _, p := range profiles {
				compute += float64(p.Compute)
				comm += float64(p.Comm)
				grad += float64(p.GradAR)
				total += float64(p.Total())
			}
			within := func(name string, got, want float64) {
				t.Helper()
				if math.Abs(got-want) > 1e-9*want {
					t.Errorf("profile %s %v != breakdown %v (ratio %.4f)", name, got, want, got/want)
				}
			}
			within("compute", compute, float64(bd.ComputeTime()))
			within("comm", comm, float64(bd.TPIntraComm+bd.TPInterComm+bd.PPComm+bd.CPComm+bd.MoEComm+bd.ZeROComm))
			within("grad", grad, float64(bd.GradIntraComm+bd.GradInterComm))
			within("total", total, float64(bd.PerBatch()-bd.Bubble))
		})
	}
}

func TestProfileDenseUniform(t *testing.T) {
	e := cs1Estimator(parallel.Mapping{TPIntra: 8, DPInter: 128}, 8192)
	profiles, err := e.ProfileLayers()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles {
		if p.MoE {
			t.Fatalf("dense model flagged MoE at %d", i)
		}
		if p.Layer != i {
			t.Fatalf("layer index %d at %d", p.Layer, i)
		}
		if p.Total() <= 0 {
			t.Fatalf("layer %d non-positive total", i)
		}
		if i > 0 && math.Abs(float64(p.Total()-profiles[0].Total())) > 1e-12*float64(profiles[0].Total()) {
			t.Fatalf("dense layers differ: %v vs %v", p.Total(), profiles[0].Total())
		}
	}
}

func TestProfileMoELayersStandOut(t *testing.T) {
	g := transformer.GLaM()
	sys := hardware.OpticalSystem(hardware.OpticalOptions{
		AccelsPerNode: 8, EdgeAccels: 8, TotalAccels: 3072,
	})
	e := &Estimator{
		Model:   &g,
		System:  &sys,
		Mapping: parallel.Mapping{TPIntra: 8, DPInter: 384, ExpertParallel: true},
		Training: Training{
			Batch:    parallel.Batch{Global: 6144},
			Operands: precision.Uniform(precision.FP8),
		},
	}
	profiles, err := e.ProfileLayers()
	if err != nil {
		t.Fatal(err)
	}
	moe, dense := 0, 0
	for i, p := range profiles {
		if p.MoE {
			moe++
			// MoE layers: more compute (top-2 experts), extra all-to-all.
			if p.Compute <= profiles[0].Compute || p.Comm <= profiles[0].Comm {
				t.Errorf("MoE layer %d not heavier than dense layer 0", i)
			}
		} else {
			dense++
		}
	}
	if moe != 32 || dense != 32 {
		t.Errorf("moe/dense split = %d/%d", moe, dense)
	}
}

func TestProfileErrors(t *testing.T) {
	e := cs1Estimator(parallel.Mapping{TPIntra: 4, DPInter: 128}, 8192) // does not tile
	if _, err := e.ProfileLayers(); err == nil {
		t.Error("invalid estimator profiled")
	}
}
