package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"amped/internal/audit"
	"amped/internal/config"
	"amped/internal/serve"
)

// Request kinds of the serve-mix stream.
const (
	kindEvaluate = "evaluate"
	kindInfer    = "infer"
	kindReject   = "reject"
)

// Shape of the serve-mix stream: distinct scenario keys per kind (together
// about twice the default 64-entry session cache), the kind mix, the Zipf
// skew within a kind, and the stream length before it wraps.
const (
	evaluateKeys = 84
	inferKeys    = 40
	shareEval    = 0.65
	shareInfer   = 0.30
	zipfS        = 1.1
	streamLen    = 1 << 16
	maxShapes    = 1000
)

// openLoopRate is the serve-mix open-loop arrival rate in requests per
// second: fixed, so the latency it measures is comparable across commits.
// On a 2-vCPU host it is a quarter to a fifth of the closed-loop
// throughput. At a third (3500/s) the two senders fall behind by tens to
// hundreds of milliseconds whenever the host slows, and the median latency
// then varies by more than its bound from run to run (NOTES.md).
const openLoopRate = 2000

// mixDoc is one distinct request document with the answer the oracle
// expects for it.
type mixDoc struct {
	kind string
	path string
	body []byte
	// Literal-evaluator answers: total and per-batch seconds for an
	// evaluation; TTFT, per-token and request seconds for an inference.
	want [3]float64
}

// mixSet is the seeded serve-mix input: the distinct documents and the
// request stream over them.
type mixSet struct {
	docs []mixDoc
	seq  []int // indexes into docs
}

// newMixSet builds the serve-mix documents and request stream. Document
// shapes (model, machine size, mapping, batch, roofline) come in a fixed
// order, so every seed offers the same request costs at the same
// popularity ranks; the seed draws each document's link constants and the
// order of the request stream. Every valid document is compiled and
// evaluated in process once, so the stream holds no accidental failures
// and no two documents share a scenario key.
func newMixSet(seed int64) (*mixSet, error) {
	r := rand.New(rand.NewSource(seed))
	ms := &mixSet{}
	keys := map[string]bool{}
	for shape := 0; len(ms.docs) < evaluateKeys; shape++ {
		if shape > maxShapes {
			return nil, fmt.Errorf("serve-mix: only %d valid evaluation documents", len(ms.docs))
		}
		if err := ms.addEvaluate(r, shape, keys); err != nil {
			return nil, err
		}
	}
	for shape := 0; len(ms.docs) < evaluateKeys+inferKeys; shape++ {
		if shape > maxShapes {
			return nil, fmt.Errorf("serve-mix: only %d valid inference documents", len(ms.docs)-evaluateKeys)
		}
		if err := ms.addInfer(r, shape, keys); err != nil {
			return nil, err
		}
	}
	if err := ms.addRejects(); err != nil {
		return nil, err
	}
	zEval := rand.NewZipf(r, zipfS, 1, evaluateKeys-1)
	zInfer := rand.NewZipf(r, zipfS, 1, inferKeys-1)
	nReject := len(ms.docs) - evaluateKeys - inferKeys
	ms.seq = make([]int, streamLen)
	for i := range ms.seq {
		switch u := r.Float64(); {
		case u < shareEval:
			ms.seq[i] = int(zEval.Uint64())
		case u < shareEval+shareInfer:
			ms.seq[i] = evaluateKeys + int(zInfer.Uint64())
		default:
			ms.seq[i] = evaluateKeys + inferKeys + r.Intn(nReject)
		}
	}
	return ms, nil
}

// digit returns the k-th mixed-radix digit of shape over the given radices.
func digit(shape int, radices []int, k int) int {
	for _, r := range radices[:k] {
		shape /= r
	}
	return shape % radices[k]
}

// jitter scales base by a factor in [0.5, 1.5).
func jitter(r *rand.Rand, base float64) config.Quantity {
	return config.Quantity(base * (0.5 + r.Float64()))
}

func randomSystem(r *rand.Rand, nodes int) config.System {
	return config.System{
		Name:          fmt.Sprintf("%dx8 a100", nodes),
		Accelerator:   config.Accelerator{Preset: "a100"},
		Nodes:         nodes,
		AccelsPerNode: 8,
		Intra:         config.Link{Name: "nvlink", LatencyS: jitter(r, 2e-6), Bandwidth: jitter(r, 2.4e12)},
		Inter:         config.Link{Name: "hdr", LatencyS: jitter(r, 5e-6), Bandwidth: jitter(r, 2e11)},
	}
}

// Shape axes of the evaluation documents: dense presets and the GLaM MoE
// preset, roofline pricing on half, machine sizes, pipeline and tensor
// degrees, and the per-replica batch.
var (
	evalPresets = []string{"gpt3-175b", "megatron-145b", "llama-7b", "glam", "megatron-310b", "gpt2-xl"}
	evalNodes   = []int{4, 8, 16, 32, 64}
	evalPP      = []int{1, 2, 4}
	evalTP      = []int{8, 4, 2}
	evalPerDP   = []int{8, 4, 16}
	evalRadices = []int{len(evalPresets), 2, len(evalNodes), len(evalPP), len(evalTP), len(evalPerDP)}
)

// addEvaluate adds the /v1/evaluate document of one shape, if it is valid.
func (ms *mixSet) addEvaluate(r *rand.Rand, shape int, keys map[string]bool) error {
	d := func(k int) int { return digit(shape, evalRadices, k) }
	nodes, pp, tp := evalNodes[d(2)], evalPP[d(3)], evalTP[d(4)]
	mp := config.Mapping{TPIntra: tp, DPIntra: 8 / tp, PPInter: pp, DPInter: nodes / pp}
	doc := config.Document{
		Model:    config.Model{Preset: evalPresets[d(0)]},
		System:   randomSystem(r, nodes),
		Mapping:  mp,
		Training: config.Training{GlobalBatch: mp.DPIntra * mp.DPInter * evalPerDP[d(5)], Roofline: d(1) == 0},
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	comp, err := doc.Components()
	if err != nil {
		return nil // not a valid shape; the caller tries the next
	}
	sess, err := comp.Compile()
	if err != nil || keys[comp.Key()] {
		return nil
	}
	if _, err := sess.Evaluate(mp.Resolve(), doc.Training.GlobalBatch, doc.Training.Microbatches); err != nil {
		return nil
	}
	keys[comp.Key()] = true
	ms.docs = append(ms.docs, mixDoc{kind: kindEvaluate, path: "/v1/evaluate", body: body})
	return nil
}

// Shape axes of the inference documents over the GQA llama-70b preset.
var (
	inferNodes   = []int{1, 2, 4}
	inferPrompt  = []int{1024, 512, 2048}
	inferGen     = []int{128, 64, 256}
	inferPerDP   = []int{8, 4, 16}
	inferRadices = []int{len(inferNodes), len(inferPrompt), len(inferGen), len(inferPerDP)}
)

// addInfer adds the /v1/infer document of one shape, if it is valid.
func (ms *mixSet) addInfer(r *rand.Rand, shape int, keys map[string]bool) error {
	d := func(k int) int { return digit(shape, inferRadices, k) }
	nodes := inferNodes[d(0)]
	doc := config.Document{
		Workload: "inference",
		Model:    config.Model{Preset: "llama-70b"},
		System:   randomSystem(r, nodes),
		Mapping:  config.Mapping{TPIntra: 8, DPInter: nodes},
		Training: config.Training{Roofline: true},
		Inference: &config.Inference{
			PromptLen: inferPrompt[d(1)], GenTokens: inferGen[d(2)],
			GlobalBatch: nodes * inferPerDP[d(3)], Occupancy: 0.85,
		},
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	comp, inf, batch, err := doc.InferenceScenario()
	if err != nil {
		return nil
	}
	sess, err := comp.CompileInference(inf)
	key := comp.InferenceKey(inf)
	if err != nil || keys[key] {
		return nil
	}
	if _, err := sess.Evaluate(doc.Mapping.Resolve(), batch); err != nil {
		return nil
	}
	keys[key] = true
	ms.docs = append(ms.docs, mixDoc{kind: kindInfer, path: "/v1/infer", body: body})
	return nil
}

// addRejects adds the deliberately invalid documents, each of which must be
// answered with a 4xx: truncated JSON, an unknown field, a mapping that does
// not tile the machine, and a training document sent to /v1/infer.
func (ms *mixSet) addRejects() error {
	valid := ms.docs[0].body
	var doc map[string]any
	if err := json.Unmarshal(valid, &doc); err != nil {
		return err
	}
	doc["bogus"] = 1
	unknown, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	delete(doc, "bogus")
	doc["mapping"] = map[string]int{"tp_intra": 3, "dp_inter": 5}
	untiled, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	for _, d := range []mixDoc{
		{path: "/v1/evaluate", body: valid[:len(valid)/2]},
		{path: "/v1/evaluate", body: unknown},
		{path: "/v1/evaluate", body: untiled},
		{path: "/v1/infer", body: valid},
	} {
		d.kind = kindReject
		ms.docs = append(ms.docs, d)
	}
	return nil
}

// expect prices every valid document with the audit package's literal
// evaluators, independently of the serving path.
func (ms *mixSet) expect() error {
	for i := range ms.docs {
		d := &ms.docs[i]
		if d.kind == kindReject {
			continue
		}
		doc, err := config.Parse(d.body)
		if err != nil {
			return err
		}
		if d.kind == kindInfer {
			comp, inf, batch, err := doc.InferenceScenario()
			if err != nil {
				return err
			}
			sc := audit.InferenceScenario{
				Scenario: audit.Scenario{Model: comp.Model, System: comp.System, Mapping: doc.Mapping.Resolve(),
					Training: comp.Training, Eff: comp.Eff},
				Inference: inf, Batch: batch,
			}
			bd, err := audit.InferenceLiteral(&sc)
			if err != nil {
				return fmt.Errorf("literal rejects an inference document: %w", err)
			}
			d.want = [3]float64{float64(bd.TTFT()), float64(bd.PerToken()), float64(bd.RequestLatency())}
			continue
		}
		comp, err := doc.Components()
		if err != nil {
			return err
		}
		tr := comp.Training
		tr.Batch.Global, tr.Batch.Microbatches = doc.Training.GlobalBatch, doc.Training.Microbatches
		sc := audit.Scenario{Model: comp.Model, System: comp.System, Mapping: doc.Mapping.Resolve(), Training: tr, Eff: comp.Eff}
		bd, err := audit.Literal(&sc)
		if err != nil {
			return fmt.Errorf("literal rejects a training document: %w", err)
		}
		d.want = [3]float64{float64(bd.TotalTime()), float64(bd.PerBatch())}
	}
	return nil
}

// check verifies one response against the document's expected answer and
// reports whether the server's session cache answered it.
func (d *mixDoc) check(status int, body []byte) (hit bool, err error) {
	if d.kind == kindReject {
		if status < 400 || status > 499 {
			return false, fmt.Errorf("invalid %s document answered %d, want a 4xx", d.path, status)
		}
		return false, nil
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("%s = %d: %.200s", d.path, status, body)
	}
	var cache string
	var got [3]float64
	if d.kind == kindInfer {
		var resp serve.InferResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, fmt.Errorf("%s: %w", d.path, err)
		}
		cache, got = resp.Cache, [3]float64{resp.TTFTS, resp.PerTokenS, resp.RequestS}
	} else {
		var resp serve.EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, fmt.Errorf("%s: %w", d.path, err)
		}
		cache, got = resp.Cache, [3]float64{resp.TotalS, resp.PerBatchS}
	}
	for i := range got {
		if !relClose(got[i], d.want[i]) {
			return false, fmt.Errorf("%s: answer %v, literal evaluator %v", d.path, got, d.want)
		}
	}
	switch cache {
	case "hit", "join":
		return true, nil
	case "miss":
		return false, nil
	}
	return false, fmt.Errorf("%s: unknown cache status %q", d.path, cache)
}

// answers remembers, per document, the response bodies that passed the full
// check. The server answers a document with the same bytes for the same
// cache status, so later responses are compared with bytes.Equal, and the
// JSON decode and literal comparison run once per (document, cache status)
// instead of inside the measured loops.
type answers struct {
	mu     sync.Mutex
	seen   [][]answer // by document
	decode int        // responses checked in full
}

type answer struct {
	body []byte
	hit  bool
}

// check verifies response body of document i, in full unless the same bytes
// already passed for that document.
func (a *answers) check(ms *mixSet, i, status int, body []byte) (hit bool, err error) {
	d := &ms.docs[i]
	if d.kind == kindReject || status != http.StatusOK {
		return d.check(status, body)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range a.seen[i] {
		if bytes.Equal(s.body, body) {
			return s.hit, nil
		}
	}
	a.decode++
	if hit, err = d.check(status, body); err == nil {
		a.seen[i] = append(a.seen[i], answer{body: bytes.Clone(body), hit: hit})
	}
	return hit, err
}

// mixEnv is a running serve-mix set-up: the documents, one server and a
// client holding at most nproc connections.
type mixEnv struct {
	ms      *mixSet
	srv     *server
	client  *http.Client
	answers answers
	next    atomic.Int64 // position in the request stream
}

func setupMix(seed int64) (*mixEnv, error) {
	ms, err := newMixSet(seed)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(serve.Config{})
	if err != nil {
		return nil, err
	}
	env := &mixEnv{ms: ms, srv: srv, client: newClient(runtime.NumCPU())}
	env.answers.seen = make([][]answer, len(ms.docs))
	if err := healthy(env.client, srv.url); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (env *mixEnv) close() {
	env.srv.stop()
	env.client.CloseIdleConnections()
}

// sample is one completed request.
type sample struct {
	kind    string
	latency time.Duration
	hit     bool
	ok      bool
}

// request sends the next document of the stream and checks the answer.
func (env *mixEnv) request(o *ops, tr *tracer) sample {
	i := env.ms.seq[int(env.next.Add(1)-1)%streamLen]
	d := &env.ms.docs[i]
	s := sample{kind: d.kind}
	var status int
	var body []byte
	var err error
	s.latency = o.do(func() error {
		ot := tr.begin("serve-mix." + d.kind)
		defer ot.exit()
		status, body, err = post(env.client, ot, env.srv.url+d.path, d.body)
		return err
	}, func() error {
		s.hit, err = env.answers.check(env.ms, i, status, body)
		s.ok = err == nil && d.kind != kindReject
		return err
	})
	return s
}

// tally sums a loop's requests without keeping them, so the harness's own
// memory stays out of the peak RSS it reports.
type tally struct {
	n, priced, hits int
	latency         time.Duration        // summed
	byKind          map[string][]float64 // latencies in µs, when kept
}

func (t *tally) add(s sample) {
	t.n++
	t.latency += s.latency
	if s.ok {
		t.priced++
		if s.hit {
			t.hits++
		}
	}
	if t.byKind != nil {
		t.byKind[s.kind] = append(t.byKind[s.kind], float64(s.latency)/1e3)
	}
}

// all returns the kept latencies of every kind.
func (t *tally) all() []float64 {
	var out []float64
	for _, v := range t.byKind {
		out = append(out, v...)
	}
	return out
}

func (t *tally) merge(u *tally) {
	t.n, t.priced, t.hits, t.latency = t.n+u.n, t.priced+u.priced, t.hits+u.hits, t.latency+u.latency
	for k, v := range u.byKind {
		t.byKind[k] = append(t.byKind[k], v...)
	}
}

// closedLoop runs nproc clients back to back for dur and returns their
// tally with the loop's wall time; keep also keeps each latency by kind.
func (env *mixEnv) closedLoop(o *ops, tr *tracer, dur time.Duration, keep bool) (tally, time.Duration) {
	clients := runtime.NumCPU()
	per := make([]tally, clients)
	var all tally
	if keep {
		all.byKind = map[string][]float64{}
		for c := range per {
			per[c].byKind = map[string][]float64{}
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				per[c].add(env.request(o, tr))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	for c := range per {
		all.merge(&per[c])
	}
	return all, wall
}

// openLoop sends requests on a fixed schedule of rate per second for dur,
// from nproc senders. Each latency runs from the request's due time, so a
// stall also delays the requests queued behind it.
func (env *mixEnv) openLoop(o *ops, rate float64, dur time.Duration) openTimes {
	senders := runtime.NumCPU()
	interval := time.Duration(float64(time.Second) / rate)
	slots := int(dur / interval)
	per := make([]openTimes, senders)
	for c := range per { // sized up front: no growth inside the measured loop
		per[c] = openTimes{latency: make([]float64, 0, slots), late: make([]float64, 0, slots)}
	}
	var slot atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				due := time.Duration(slot.Add(1)-1) * interval
				if due >= dur {
					return
				}
				sleepUntil(start.Add(due))
				late := time.Since(start) - due
				s := env.request(o, nil)
				per[c].latency = append(per[c].latency, float64(late+s.latency)/1e6)
				per[c].late = append(per[c].late, float64(late)/1e6)
			}
		}(c)
	}
	wg.Wait()
	var all openTimes
	for _, p := range per {
		all.latency = append(all.latency, p.latency...)
		all.late = append(all.late, p.late...)
	}
	return all
}

// openTimes holds an open loop's latencies from the due time, and how late
// each request was sent, in milliseconds.
type openTimes struct{ latency, late []float64 }

// sleepUntil blocks until t. An idle Go process parks in the netpoller at
// millisecond resolution, so time.Sleep would make a sub-millisecond
// schedule run about half a millisecond late on average; the last stretch
// is slept with nanosleep instead, which wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
		}
	}
}

// A serve-mix run alternates its two phases serveMixCycles times, the
// closed loop taking serveMixClosedShare of each cycle. Each end-to-end
// metric is the median over the cycles, so a host slowdown that covers a
// few of them does not move it.
const (
	serveMixCycles      = 6
	serveMixClosedShare = 0.6
)

func runServeMix(cfg runConfig) (*outcome, error) {
	env, setupS, err := measureSetup(func() (*mixEnv, error) { return setupMix(cfg.seed) }, (*mixEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := env.ms.expect(); err != nil {
		return nil, err
	}
	o := cfg.ops
	env.closedLoop(o, nil, time.Second, false) // warm-up
	runtime.GC()

	cycle := cfg.seconds / serveMixCycles
	closedDur := time.Duration(float64(cycle) * serveMixClosedShare)
	var reqRate, pricedRate, cpuReq, cpuPriced, p50 []float64
	var closed tally
	var open openTimes
	for c := 0; c < serveMixCycles; c++ {
		cpu0 := cpuTime()
		t, wall := env.closedLoop(o, nil, closedDur, false)
		cpu := cpuTime() - cpu0
		ot := env.openLoop(o, openLoopRate, cycle-closedDur)
		if t.priced == 0 || len(ot.latency) == 0 {
			return nil, errors.New("serve-mix: a cycle priced no request")
		}
		reqRate = append(reqRate, float64(t.n)/wall.Seconds())
		pricedRate = append(pricedRate, float64(t.priced)/wall.Seconds())
		cpuReq = append(cpuReq, float64(cpu.Nanoseconds())/1e3/float64(t.n))
		cpuPriced = append(cpuPriced, float64(cpu.Nanoseconds())/float64(t.priced))
		p50 = append(p50, median(ot.latency))
		closed.merge(&t)
		open.latency, open.late = append(open.latency, ot.latency...), append(open.late, ot.late...)
	}

	lat, late := sortedCopy(open.latency), sortedCopy(open.late)
	q, note := tailNote(len(lat))
	return &outcome{
		metrics: map[string]float64{
			"setup_s":         setupS,
			"req_per_s":       median(reqRate),
			"cells_per_s":     median(pricedRate),
			"latency_p50_ms":  median(p50),
			"cpu_us_per_req":  median(cpuReq),
			"cpu_ns_per_cell": median(cpuPriced),
			"peak_rss_mb":     peakRSSMB(),
		},
		extra: []extraMetric{
			{Name: "latency_p99_ms", Value: percentile(lat, q), Unit: "ms", Note: fmt.Sprintf("open loop at %d/s, %s", openLoopRate, note)},
			{Name: "loadgen.late_p99_ms", Value: percentile(late, q), Unit: "ms", Note: note},
			{Name: "closed_loop_requests", Value: float64(closed.n), Unit: "count", Note: fmt.Sprintf("%d clients", runtime.NumCPU())},
			{Name: "client_cache_hit_ratio", Value: float64(closed.hits) / float64(closed.priced), Unit: "ratio"},
			{Name: "oracle_decoded_responses", Value: float64(env.answers.decode), Unit: "count",
				Note: "checked in full; every other response matched one of these byte for byte"},
		},
	}, nil
}
