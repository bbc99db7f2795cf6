package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"amped/internal/config"
	"amped/internal/explore"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/serve"
	"amped/internal/transformer"
)

// TestTailPercentile pins the tail rule: the highest ladder percentile that
// leaves at least ten samples above it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true}, // p99.9 would leave only 9 above
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{21, 50, true},
		{20, 50, true},
		{19, 0, false},
		{3, 0, false},
	} {
		q, ok := tailPercentile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok {
			if above := c.n - rankOf(q, c.n); above < 10 {
				t.Errorf("n=%d: p%v leaves %d samples above it", c.n, q, above)
			}
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

// TestQuartilesMatchPython checks the spread statistic against values
// Python's statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; want 1.5, 4.5", q1, q3)
	}
}

// TestSelfTimeOverlappingChildren checks that overlapping children are
// counted once and clipped to their parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	op := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "a", Start: 30, End: 60},  // overlaps the first a
		{ID: 3, Parent: 0, Name: "b", Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Name: "c", Start: 15, End: 25},
	}
	got := selfTimes(op)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	rows, ops, total := attribute(op, "op")
	if ops != 1 || total != 100 {
		t.Fatalf("attribute: %d ops, total %v; want 1, 100ns", ops, total)
	}
	byName := map[string]time.Duration{}
	for _, r := range rows {
		byName[r.Layer] = r.Self
	}
	if byName[unattributed] != 40 || byName["a"] != 50 || byName["c"] != 10 {
		t.Errorf("attribution rows = %v", rows)
	}
}

// TestTracerNesting checks parent links and that a nil tracer records
// nothing.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	ot := tr.begin("w.op")
	_ = ot.call("x", func() error {
		return ot.call("y", func() error { return nil })
	})
	ot.exit()
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].Parent != 0 || spans[2].Parent != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	var none *tracer
	o := none.begin("w.op")
	o.enter("x")
	o.exit()
	o.exit()
}

// TestCorruptedResponseCountsAsError feeds the oracle a correct and a
// corrupted answer of each kind; the corrupted one must count as a failed
// operation.
func TestCorruptedResponseCountsAsError(t *testing.T) {
	eval := mixDoc{kind: kindEvaluate, path: "/v1/evaluate", want: [3]float64{1234.5, 0.25}}
	good, _ := json.Marshal(serve.EvaluateResponse{Cache: "hit", TotalS: 1234.5, PerBatchS: 0.25})
	bad, _ := json.Marshal(serve.EvaluateResponse{Cache: "hit", TotalS: 1234.5 * (1 + 1e-6), PerBatchS: 0.25})
	infer := mixDoc{kind: kindInfer, path: "/v1/infer", want: [3]float64{0.5, 0.01, 3}}
	goodI, _ := json.Marshal(serve.InferResponse{Cache: "miss", TTFTS: 0.5, PerTokenS: 0.01, RequestS: 3})
	badI, _ := json.Marshal(serve.InferResponse{Cache: "miss", TTFTS: 0.5, PerTokenS: 0.02, RequestS: 3})
	reject := mixDoc{kind: kindReject, path: "/v1/evaluate"}

	for _, c := range []struct {
		name   string
		doc    mixDoc
		status int
		body   []byte
		fail   bool
	}{
		{"evaluate ok", eval, 200, good, false},
		{"evaluate corrupted number", eval, 200, bad, true},
		{"evaluate truncated", eval, 200, good[:len(good)/2], true},
		{"evaluate 500", eval, 500, good, true},
		{"infer ok", infer, 200, goodI, false},
		{"infer corrupted number", infer, 200, badI, true},
		{"reject answered 422", reject, 422, nil, false},
		{"reject answered 200", reject, 200, good, true},
		{"shed 429", eval, 429, nil, true},
	} {
		o := &ops{}
		o.do(func() error { return nil }, func() error {
			_, err := c.doc.check(c.status, c.body)
			return err
		})
		if got := o.failed.Load() == 1; got != c.fail || o.attempted.Load() != 1 {
			t.Errorf("%s: failed=%d attempted=%d, want failure %v", c.name, o.failed.Load(), o.attempted.Load(), c.fail)
		}
	}

	// Remembered answers: the same bytes pass without a decode, and a
	// corrupted answer to a document already answered correctly still fails.
	ms := &mixSet{docs: []mixDoc{eval}}
	a := answers{seen: make([][]answer, 1)}
	for _, c := range []struct {
		body   []byte
		fail   bool
		decode int
	}{{good, false, 1}, {good, false, 1}, {bad, true, 2}, {good[:len(good)/2], true, 3}, {good, false, 3}} {
		if _, err := a.check(ms, 0, 200, c.body); (err != nil) != c.fail || a.decode != c.decode {
			t.Errorf("remembered answers: %s: err=%v decoded=%d, want failure %v after %d decodes", c.body, err, a.decode, c.fail, c.decode)
		}
	}

	env := &fleetEnv{feasible: 2, want: []byte(`[{"mapping":"a","batch":1,"microbatches":1}]`)}
	sweep := func(points string) []byte {
		return []byte(`{"total_points":2,"points":` + points + `}`)
	}
	if err := env.checkSweep("sweep", sweep(`[{"mapping":"a","batch":1,"microbatches":1}]`)); err != nil {
		t.Errorf("identical ranking rejected: %v", err)
	}
	if err := env.checkSweep("sweep", sweep(`[{"mapping":"b","batch":1,"microbatches":1}]`)); err == nil {
		t.Error("a different top point passed the sharded = single-node check")
	}
}

// TestRankingOracle checks the in-process ranking oracles on a small space:
// a sorted ranking passes, every top point agrees with the literal
// evaluator, a swapped pair fails, and the chunked ranking equals the
// whole-space one byte for byte.
func TestRankingOracle(t *testing.T) {
	sp := smallSpace(t)
	pts, err := explore.Sweep(sp.sc, sp.opt)
	if err != nil {
		t.Fatal(err)
	}
	explore.SortByTime(pts)
	if err := checkRanking(pts); err != nil {
		t.Fatalf("sorted ranking rejected: %v", err)
	}
	for _, p := range keepTop(pts, topN) {
		if err := sp.checkLiteral(p); err != nil {
			t.Fatalf("literal evaluator disagrees: %v", err)
		}
	}
	swapped := append([]explore.Point(nil), pts...)
	swapped[0], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[0]
	if checkRanking(swapped) == nil {
		t.Error("an unsorted ranking passed")
	}

	whole, err := wirePoints(keepTop(pts, topN))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sp.rankChunked(37)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := wirePoints(r.top)
	if err != nil {
		t.Fatal(err)
	}
	if string(whole) != string(chunked) || r.feasible != len(pts) {
		t.Errorf("chunked ranking differs:\n%s\n%s", whole, chunked)
	}
}

// smallSpace is a few-hundred-cell space for tests that need real ranking
// queries but not the explore-1m size.
func smallSpace(t *testing.T) *space {
	t.Helper()
	m := transformer.GPT3175B()
	sys := hardware.CaseStudy1System()
	sc := explore.Scenario{Model: &m, System: &sys}
	opt := explore.Options{
		Batches:          []int{4096, 8192},
		Enumerate:        parallel.EnumerateOptions{PowerOfTwo: true},
		MicrobatchTarget: 128,
	}
	comp := &config.Components{Model: m, System: sys, Training: sc.Training, Eff: sc.Eff}
	return &space{sc: sc, opt: opt, comp: comp}
}

// TestResolvingPower injects a delay into the harness's own operation
// wrapper and checks that the benchmark flags it: latency_p50_ms must move
// by more than its bound. The host's run-to-run drift puts every time
// bound at the 0.25 ceiling (NOTES.md), so a 20% slowdown falls inside
// the bounds; the test injects 30%, the smallest round share the bounds
// resolve. Throughput falls by 1-1/1.3 = 23.1%, inside its bound; the test
// logs it. The operation has a fixed length, so the check measures the
// harness, not the host. CPU metrics are not checked: the injected delay
// is a sleep.
func TestResolvingPower(t *testing.T) {
	const injected = 0.3
	op := func() error {
		sleepUntil(time.Now().Add(10 * time.Millisecond))
		return nil
	}
	measure := func(delay float64) (perSecond, latency float64) {
		o := &ops{delay: delay, errw: io.Discard}
		var lat []float64
		var busy time.Duration
		for i := 0; i < 20; i++ {
			d := o.do(op, nil)
			busy += d
			lat = append(lat, float64(d))
		}
		return 20 / busy.Seconds(), median(lat)
	}
	var base, slow [2][]float64
	for i := 0; i < 5; i++ { // alternate, so drift hits both sides alike
		r, l := measure(0)
		base[0], base[1] = append(base[0], r), append(base[1], l)
		r, l = measure(injected)
		slow[0], slow[1] = append(slow[0], r), append(slow[1], l)
	}
	rateDrop := 1 - median(slow[0])/median(base[0])
	latRise := median(slow[1])/median(base[1]) - 1
	if math.Abs(latRise-injected) > 0.05 { // the sleep overshoots by tens of µs
		t.Fatalf("injected %.0f%% delay measured as %.1f%%", 100*injected, 100*latRise)
	}
	for _, s := range endToEnd {
		switch s.Name {
		case "latency_p50_ms":
			if latRise <= s.Bound {
				t.Errorf("%s: a %.0f%% delay raises it by %.1f%%, inside its %.0f%% bound", s.Name, 100*injected, 100*latRise, 100*s.Bound)
			}
		case "req_per_s", "cells_per_s":
			t.Logf("%s: a %.0f%% delay lowers it by %.1f%% against its %.0f%% bound", s.Name, 100*injected, 100*rateDrop, 100*s.Bound)
		}
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metric tables
// in this package in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricSpec                 `json:"end_to_end"`
		PerLayer  []metricSpec                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\nin spec.go:\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from spec.go")
	}
	var gated []struct{ Name, Why string }
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, struct{ Name, Why string }{w.Name, w.Why})
		}
	}
	if !reflect.DeepEqual(b.Workloads, gated) {
		t.Errorf("workloads in BENCHMARK.json:\n%+v\ngated in spec.go:\n%+v", b.Workloads, gated)
	}
}
