// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a fixed time and prints every metric by name with its
// unit, then, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload explore-1m --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// a separate run that records spans around every layer call, prints each
// workload's layer attribution table and reports the per-layer metrics.
// Every operation's output is checked against an oracle; a mismatch counts
// as a failed operation. Each run's full record, host fingerprint included,
// is kept under .bench_build/results, and
//
//	perfbench --compare <base-dir> <head-dir>
//
// compares two sets of records, refusing when they come from different
// hosts. NOTES.md says why each workload exists and which metric each
// ROADMAP item should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the directory
// the benchmark runs in.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: explore-1m, serve-mix or fleet-1m")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 20, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	compare := fs.Bool("compare", false, "compare the result records of two directories given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes two result directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, out: stdout, ops: &ops{errw: stderr},
	}
	rec, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rec.save(); err != nil {
		fmt.Fprintf(stderr, "perfbench: keeping the result record: %v\n", err)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      io.Writer // the human-readable report
	ops      *ops
}

// outcome is what a workload hands back: its metrics by name, plus extra
// figures that are printed but not part of the result line.
type outcome struct {
	metrics map[string]float64
	extra   []extraMetric
}

type extraMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// metricValue and result are the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as kept on disk for --compare.
type record struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Trace    bool          `json:"trace"`
	Seconds  float64       `json:"seconds"`
	Host     host          `json:"host"`
	Result   result        `json:"result"`
	Extra    []extraMetric `json:"extra,omitempty"`
}

func (r *record) save() error {
	dir := filepath.Join(buildDir, "results", r.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("seed%d-trace%d.json", r.Seed, b2i(r.Trace))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// execute runs the configured workload and assembles its record.
func execute(cfg runConfig) (*record, error) {
	run, ok := map[string]func(runConfig) (*outcome, error){
		"explore-1m": runExplore,
		"serve-mix":  runServeMix,
		"fleet-1m":   runFleet,
	}[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace {
		run = tracedRun
	}
	h := fingerprint()
	fmt.Fprintf(cfg.out, "perfbench %s seed=%d seconds=%.0f trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(cfg.out, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s arch=%s\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Arch)
	steal0, total0, ok0 := cpuTicks()
	out, err := run(cfg)
	if err != nil {
		return nil, err
	}
	if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 && total1 > total0 {
		out.extra = append(out.extra, extraMetric{Name: "host.steal_ratio", Value: float64(steal1-steal0) / float64(total1-total0), Unit: "ratio",
			Note: "share of the machine's CPU time the hypervisor gave other guests during the run; wall-clock metrics swing with it"})
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := result{
		Attempted: cfg.ops.attempted.Load(),
		Failed:    cfg.ops.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("workload did not measure %s", s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(cfg.out, "metric %-32s %16.6g %s\n", s.Name, v, s.Unit)
	}
	errRate := float64(res.Failed) / float64(res.Attempted)
	out.extra = append(out.extra, extraMetric{Name: "error_rate", Value: errRate, Unit: "ratio",
		Note: fmt.Sprintf("%d of %d operations failed their check", res.Failed, res.Attempted)})
	for _, x := range out.extra {
		fmt.Fprintf(cfg.out, "report %-32s %16.6g %s", x.Name, x.Value, x.Unit)
		if x.Note != "" {
			fmt.Fprintf(cfg.out, "  (%s)", x.Note)
		}
		fmt.Fprintln(cfg.out)
	}
	return &record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds.Seconds(),
		Host: h, Result: res, Extra: out.extra,
	}, nil
}

// ops times operations and counts their outcomes against the oracle.
type ops struct {
	// delay stretches every timed operation by this share of its own
	// duration. Only the harness self-test sets it, to show which slowdown
	// the bounds can see.
	delay float64
	errw  io.Writer

	attempted, failed atomic.Int64
}

// maxLoggedErrors bounds how many failed checks are printed in full.
const maxLoggedErrors = 5

// do times fn, then runs check on its output untimed, and counts the
// operation as failed when either returns an error.
func (o *ops) do(fn func() error, check func() error) time.Duration {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if o.delay > 0 {
		sleepUntil(start.Add(d + time.Duration(float64(d)*o.delay)))
		d = time.Since(start)
	}
	if err == nil && check != nil {
		err = check()
	}
	o.attempted.Add(1)
	if err != nil {
		if n := o.failed.Add(1); n <= maxLoggedErrors && o.errw != nil {
			fmt.Fprintf(o.errw, "perfbench: operation failed: %v\n", err)
		}
	}
	return d
}

// setupRuns is how many times each workload sets up; setup_s is the median.
const setupRuns = 15

// measureSetup runs setup setupRuns times, each from a freshly collected
// heap, releases every instance but the last, and returns that one with the
// median set-up time in seconds.
func measureSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var keep T
	var times []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return keep, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRuns-1 {
			release(v)
		}
		keep = v
	}
	return keep, median(times), nil
}

// tailNote states which percentile a tail figure reports and over how many
// samples.
func tailNote(n int) (float64, string) {
	q, ok := tailPercentile(n)
	if !ok {
		return 50, fmt.Sprintf("n=%d, too few samples for a tail; median shown", n)
	}
	return q, fmt.Sprintf("p%g of n=%d", q, n)
}

// compareDirs compares the result records of two directories workload by
// workload, metric by metric, against each end-to-end metric's bound. An
// ungated workload's figures are printed but never count as a regression.
func compareDirs(base, head string, stdout, stderr io.Writer) int {
	a, err := loadRecords(base)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b, err := loadRecords(head)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "perfbench: no result records to compare")
		return 2
	}
	ref := a[0].Host
	for _, r := range append(a, b...) {
		if r.Host != ref {
			fmt.Fprintf(stdout, "refused: results come from different hosts (%+v vs %+v); a cross-host comparison is neither a pass nor a fail\n", ref, r.Host)
			return 3
		}
	}
	regressed := false
	for _, w := range workloads {
		for _, s := range endToEnd {
			va, vb := values(a, w.Name, s.Name), values(b, w.Name, s.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			q1, q3 := quartiles(va)
			spread := (q3 - q1) / ma
			worse := (mb - ma) / ma
			if s.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case !w.Gated:
				verdict = "not gated"
			case spread > s.Bound:
				verdict = "unresolved (base spread above bound)"
			case worse > s.Bound:
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(stdout, "%-11s %-16s base %12.6g head %12.6g  worse %+7.2f%%  bound %4.0f%%  base spread %5.2f%%  %s\n",
				w.Name, s.Name, ma, mb, 100*worse, 100*s.Bound, 100*spread, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func loadRecords(dir string) ([]record, error) {
	var out []record
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out, err
}

func values(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
