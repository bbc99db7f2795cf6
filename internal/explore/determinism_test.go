package explore

import (
	"math/rand"
	"reflect"
	"testing"

	"amped/internal/hardware"
	"amped/internal/model"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// dp3Scenario builds a 3-node single-accelerator system whose only natural
// data-parallel degree (3) does not divide power-of-two batches.
func dp3Scenario(t *testing.T) Scenario {
	t.Helper()
	accel, err := hardware.AcceleratorPreset("a100")
	if err != nil {
		t.Fatal(err)
	}
	m := transformer.Model{
		Name: "tiny", Layers: 4, Hidden: 256, Heads: 4,
		SeqLen: 128, Vocab: 1000, FFNRatio: 4,
	}
	sys := hardware.System{
		Name: "3x1", Accel: accel, Nodes: 3, AccelsPerNode: 1,
		Intra:       hardware.Link{Name: "i", Latency: 1e-6, Bandwidth: 2.4e12},
		Inter:       hardware.Link{Name: "e", Latency: 1e-5, Bandwidth: 2e11},
		NICsPerNode: 1,
	}
	return Scenario{Model: &m, System: &sys, Training: model.Training{}}
}

// TestSweepSkipsScheduleForNonDividingCells pins the b%dp fix: a batch that
// does not divide the DP degree must keep the scenario's own schedule (and
// error out in validation) rather than adopt an N_ub chosen for the
// silently truncated per-replica batch. Before the fix, batch 8 over DP=3
// truncated to per-replica 2 and recorded N_ub=2; the cell then failed
// validation anyway, leaving misleading microbatch metadata on the point.
func TestSweepSkipsScheduleForNonDividingCells(t *testing.T) {
	sc := dp3Scenario(t)
	pts, err := Sweep(sc, Options{
		Mappings:         []parallel.Mapping{{DPInter: 3}},
		Batches:          []int{8, 9},
		MicrobatchTarget: 1,
		KeepInvalid:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}

	bad := pts[0] // batch 8: 8 % 3 != 0
	if bad.Err == nil {
		t.Fatal("non-dividing cell did not error")
	}
	// The scenario sets no explicit schedule, so the defaulted count must
	// be the plain default (PP=1 -> 1), not ChooseMicrobatches(8/3, 1, 1)=2
	// from the truncated per-replica batch.
	if bad.Microbatches != 1 {
		t.Errorf("non-dividing cell N_ub = %d, want untouched default 1", bad.Microbatches)
	}

	good := pts[1] // batch 9: per-replica 3, target microbatch 1
	if good.Err != nil {
		t.Fatalf("dividing cell errored: %v", good.Err)
	}
	if want := ChooseMicrobatches(3, 1, 1); good.Microbatches != want {
		t.Errorf("dividing cell N_ub = %d, want %d", good.Microbatches, want)
	}
}

// TestChooseMicrobatchesTieBreak pins the tie rule: when two divisors sit
// equally close to the target count, the smaller one (fewer, larger
// microbatches) wins, matching the historical ascending scan.
func TestChooseMicrobatchesTieBreak(t *testing.T) {
	cases := []struct {
		per, pp, target, want int
	}{
		// want = 16/5 = 3; divisors 2 and 4 are both at distance 1.
		{16, 1, 5, 2},
		// Same tie with the pipeline floor excluding divisor 1.
		{16, 2, 5, 2},
		// want = 8/3 = 2 exactly: distance 0 beats the tie entirely.
		{8, 1, 3, 2},
		// want = 18/12 = 1 (floor); divisors 1,2,3,6,9,18 -> 1 at distance 0.
		{18, 1, 12, 1},
	}
	for _, c := range cases {
		if got := ChooseMicrobatches(c.per, c.pp, c.target); got != c.want {
			t.Errorf("ChooseMicrobatches(%d, %d, %d) = %d, want %d",
				c.per, c.pp, c.target, got, c.want)
		}
	}
}

// tiedPoints builds a sweep whose points all share identical time and
// energy (same breakdown, distinct mappings), in a deliberately shuffled
// order — the adversarial input for ordering determinism.
func tiedPoints(t *testing.T, seed int64) ([]Point, *hardware.System) {
	t.Helper()
	sc := dp3Scenario(t)
	pts, err := Sweep(sc, Options{
		Mappings: []parallel.Mapping{{DPInter: 3}},
		Batches:  []int{9},
	})
	if err != nil || len(pts) != 1 || pts[0].Err != nil {
		t.Fatalf("seed sweep: %v (%d points)", err, len(pts))
	}
	base := pts[0]
	out := make([]Point, 0, 4)
	for _, nub := range []int{9, 3, 1, 7} {
		p := base
		p.Microbatches = nub // distinct String() identity, identical Breakdown
		out = append(out, p)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
	})
	return out, sc.System
}

// TestSortByTimeDeterministicOnTies shuffles points tied on time and checks
// SortByTime always lands the same order, and that Best and Top pick the
// same leaders from the unsorted input.
func TestSortByTimeDeterministicOnTies(t *testing.T) {
	ref, _ := tiedPoints(t, 1)
	SortByTime(ref)
	for seed := int64(1); seed < 8; seed++ {
		got, _ := tiedPoints(t, seed)
		if b := Best(got); b == nil || b.String() != ref[0].String() {
			t.Fatalf("seed %d: Best = %v, want %s", seed, b, ref[0].String())
		}
		for k := 0; k <= len(got)+1; k++ {
			top := Top(got, k)
			want := ref[:min(k, len(ref))]
			if len(top) != len(want) {
				t.Fatalf("seed %d: Top(%d) returned %d points, want %d", seed, k, len(top), len(want))
			}
			for i := range top {
				if top[i].String() != want[i].String() {
					t.Fatalf("seed %d: Top(%d)[%d] = %s, want %s", seed, k, i, top[i].String(), want[i].String())
				}
			}
		}
		SortByTime(got)
		for i := range got {
			if got[i].String() != ref[i].String() {
				t.Fatalf("seed %d: order diverged at %d: %s vs %s",
					seed, i, got[i].String(), ref[i].String())
			}
		}
	}
}

// TestParetoDeterministicOnTies checks the Pareto front keeps the same
// representative of a fully tied (time, energy) group regardless of input
// order — the sort.Slice it previously used left that to chance.
func TestParetoDeterministicOnTies(t *testing.T) {
	pts, sys := tiedPoints(t, 1)
	ref, err := ParetoTimeEnergy(pts, sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 1 {
		t.Fatalf("tied group front has %d points, want 1", len(ref))
	}
	for seed := int64(2); seed < 8; seed++ {
		pts, _ := tiedPoints(t, seed)
		got, err := ParetoTimeEnergy(pts, sys)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("seed %d: front representative changed: %s vs %s",
				seed, got[0].String(), ref[0].String())
		}
	}
}
