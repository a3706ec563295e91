// Command perfbench is the CARAT benchmark: four workloads that each drive
// the stack through its public packages, check every output against an
// independent reference, and print end-to-end metrics (untraced run) or
// per-layer metrics (traced run) as one JSON object on the last line.
//
//	bash perfbench/run.sh --workload exec-suite --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --regen-refs perfbench/refs.json
//
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"carat/internal/workload"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run produces. failed counts operations that
// errored or whose output failed a check; wrong counts the latter alone
// (plus machine-balance breaches), and makes the run incorrect.
type result struct {
	attempted, failed, wrong int
	e2e                      map[string]float64 // end-to-end, untraced run
	info                     map[string]metric  // printed, not gated
	layer                    map[string]float64 // per-layer, traced run
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, info: map[string]metric{}, layer: map[string]float64{}}
}

// fail records n failed operations; wrong marks them as failed checks.
func (r *result) fail(n int, wrong bool, format string, args ...any) {
	r.failed += n
	if wrong {
		r.wrong += n
	}
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// endToEnd lists the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput", "op/s"},
	{"latency_mean_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"model_cycles", "cycles"},
}

// perLayer lists the per-layer metrics every traced run reports; a layer
// a workload does not exercise reads 0.
func perLayer() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"cc.compile_us", "us"},
		{"ir.parse_us", "us"},
		{"passes.run_us", "us"},
		{"passes.analysis_hit_ratio", "ratio"},
		{"passes.guards_remaining", "count"},
		{"signing.sign_us", "us"},
		{"signing.verify_us", "us"},
		{"server.module_cache.hit_ratio", "ratio"},
		{"server.module_cache.evictions", "count"},
		{"server.request_us", "us"},
		{"vm.load_us", "us"},
		{"vm.run_us", "us"},
		{"vm.release_us", "us"},
		{"vm.closure.deopts", "count"},
		{"vm.closure.ic_hit_ratio", "ratio"},
		{"vm.minstr_s", "Minstr/s"},
	}
	for _, w := range workload.All() {
		out = append(out, struct{ name, unit string }{"vm.minstr_s." + w.Name, "Minstr/s"})
	}
	return append(out, []struct{ name, unit string }{
		{"guard.checks", "count"},
		{"guard.xcache_hit_ratio", "ratio"},
		{"guard.xcache_invalidations", "count"},
		{"kernel.grant_us", "us"},
		{"kernel.release_us", "us"},
		{"kernel.move_us", "us"},
		{"runtime.moves", "count"},
		{"runtime.move_model_cycles", "cycles"},
		{"runtime.pause_p99_cycles", "cycles"},
		{"obs.merge_us", "us"},
	}...)
}

// options are the run parameters every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	clients int // closed-loop clients in serve-compile; serve-run uses one
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured. Set-ups are
// setupGap apart: the host's speed changes over tenths of a second to
// seconds, so set-ups run back to back (each takes 5-20 ms) all saw the
// same speed, and their median moved with it from run to run. Fifteen
// set-ups span ~1.4 s of the host's changes.
const (
	setupRepeats = 15
	setupGap     = 100 * time.Millisecond
)

// workloadFunc sets a workload up (setupRepeats times, through setup) and
// runs it.
type workloadFunc func(o options, refs kernelRefs, tr *tracer) (*result, error)

var workloads = map[string]workloadFunc{
	"serve-run":     serveRun,
	"serve-compile": serveCompile,
	"exec-suite":    execSuite,
	"exec-moves":    execMoves,
}

// setup runs fn setupRepeats times, closing every instance but the last,
// and returns the last instance with the median set-up time in seconds.
// With collect, each set-up starts from a collected heap, so that garbage
// an earlier set-up left does not trigger a collection inside this one's
// time. The serving workloads pass false: each of their set-ups allocates
// a 512 MB machine, and collecting between them made the peak RSS jump by
// 512 MB steps from run to run.
func setup[T any](fn func() (T, error), closeFn func(T), collect bool) (T, float64, error) {
	var all []T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			time.Sleep(setupGap)
		}
		if collect {
			runtime.GC()
		}
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			for _, x := range all {
				closeFn(x)
			}
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		all = append(all, v)
	}
	// The discarded instances are closed only now: freed while later
	// set-ups run, their memory would be reused and cleared by those
	// set-ups, which would then time the clearing.
	last := all[len(all)-1]
	for i, x := range all[:len(all)-1] {
		closeFn(x)
		all[i] = last // drop the reference, so the collector can free it
	}
	debug.FreeOSMemory()
	return last, median(times), nil
}

func main() {
	var (
		name    = flag.String("workload", "", "serve-run, serve-compile, exec-suite or exec-moves")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured window length")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		regen   = flag.String("regen-refs", "", "recompute the kernel reference values into this file and exit")
	)
	flag.Parse()
	if *regen != "" {
		if err := regenRefs(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		clients: runtime.NumCPU(),
	}
	res, err := fn(o, refs, newTracer(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", *name+":", err)
		os.Exit(1)
	}
	res.e2e["peak_rss_mb"] = peakRSSMB()
	if err := emit(os.Stdout, *name, o.trace, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints one line per metric and then the result object as the last
// line: end-to-end metrics untraced, per-layer metrics traced.
func emit(w *os.File, name string, traced bool, res *result) error {
	e2e := map[string]metric{}
	for _, m := range endToEnd {
		e2e[m.name] = metric{res.e2e[m.name], m.unit}
	}
	layer := map[string]metric{}
	for _, m := range perLayer() {
		layer[m.name] = metric{res.layer[m.name], m.unit}
	}
	// Both runs print the end-to-end figures, so a traced run can be
	// compared with an untraced one; only the traced run has layers.
	var lines []string
	for n, m := range e2e {
		lines = append(lines, fmt.Sprintf("%s %s = %.6g %s", name, n, m.Value, m.Unit))
	}
	for n, m := range res.info {
		lines = append(lines, fmt.Sprintf("%s %s = %.6g %s (not gated)", name, n, m.Value, m.Unit))
	}
	metrics := e2e
	if traced {
		metrics = layer
		for n, m := range layer {
			lines = append(lines, fmt.Sprintf("%s %s = %.6g %s", name, n, m.Value, m.Unit))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "%s attempted = %d, failed = %d\n", name, res.attempted, res.failed)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.wrong == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
