package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"carat/internal/cc"
	"carat/internal/core"
	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/vm"
)

func TestCorpusIsPureFunctionOfSeed(t *testing.T) {
	if !reflect.DeepEqual(compileCorpus(7), compileCorpus(7)) {
		t.Error("compileCorpus(7) differs between calls")
	}
	if reflect.DeepEqual(compileCorpus(7), compileCorpus(8)) {
		t.Error("compileCorpus ignores its seed")
	}
	if !reflect.DeepEqual(servePrograms(7), servePrograms(7)) {
		t.Error("servePrograms(7) differs between calls")
	}
	if reflect.DeepEqual(servePrograms(7), servePrograms(8)) {
		t.Error("servePrograms ignores its seed")
	}
	if requestSeed(7, 3) != requestSeed(7, 3) || requestSeed(7, 3) == requestSeed(7, 4) || requestSeed(7, 3) == requestSeed(8, 3) {
		t.Error("requestSeed is not a function of (seed, op)")
	}
	if n := len(compileCorpus(1)); n != len(compileStageCounts)+22 {
		t.Errorf("a serve-compile round has %d ops, want %d", n, len(compileStageCounts)+22)
	}
}

func TestModelHandComputed(t *testing.T) {
	p := ccProgram{Start: 5, Stages: []stage{{Seed: 1, Loops: 3, Mult: 3, BufLen: 2}}}
	// s starts at (5 & 1023) + 1 = 6 and steps to 18, 55, 167, landing in
	// buf[0], buf[1], buf[0] and table[2], table[7], table[7]. The stage
	// returns 167 + 55 = 222, and acc becomes 5*7 + 222 = 257.
	out, exit := p.Model()
	want := []int64{222, 0, 0, 1, 0, 0, 0, 0, 2, 257}
	if !slices.Equal(out, want) || exit != 257 {
		t.Errorf("Model() = %v, %d; want %v, 257", out, exit, want)
	}
}

// TestModelMatchesVM runs generated programs through the real front end,
// pass pipeline and VM: the Go model is only a valid reference if it
// agrees with CARAT-C's semantics.
func TestModelMatchesVM(t *testing.T) {
	progs := servePrograms(3)
	for _, op := range compileCorpus(3) {
		if op.Prog != nil && len(op.Prog.Stages) == compileStageCounts[0] {
			progs = append(progs, *op.Prog)
			break
		}
	}
	cfg := vm.DefaultConfig()
	cfg.MemBytes, cfg.HeapBytes = 1<<24, 1<<20
	for i, p := range progs {
		m, err := cc.Compile("prog", p.Source())
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		v, ret, err := core.CompileAndRun(m, passes.LevelTracking, cfg)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		out, exit := p.Model()
		if ret != exit || !slices.Equal(v.Output, out) {
			t.Errorf("program %d: VM gave %d %v, model %d %v", i, ret, v.Output, exit, out)
		}
	}
}

func TestKernelTextRoundTrips(t *testing.T) {
	n := 0
	for _, op := range compileCorpus(1) {
		if op.Kind != "cir" {
			continue
		}
		n++
		m, err := ir.Parse(op.Source)
		if err != nil {
			t.Fatalf("%s: %v", op.Kernel, err)
		}
		if m.String() != op.Source {
			t.Errorf("%s: reprinted text differs from the parsed text", op.Kernel)
		}
	}
	if n != 22 {
		t.Errorf("%d kernels in the corpus, want 22", n)
	}
}

func TestPercentileOmittedBelowFloor(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 999 samples reported; only 9.99 lie beyond it")
	}
	xs = append(xs, 1000)
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := mean([]float64{1, 2, 3, 6}); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
}

func TestWrongKernelResultIsFailedOp(t *testing.T) {
	res := newResult()
	k := execKernel{name: "k", want: 41}
	checkKernel(res, k, kernelOp{ret: 41}, false)
	if res.failed != 0 {
		t.Fatalf("a correct result counted as failed")
	}
	checkKernel(res, k, kernelOp{ret: 42}, false)
	checkKernel(res, k, kernelOp{ret: 41, ownedPages: 1}, false)
	checkKernel(res, k, kernelOp{ret: 41}, true) // no moves taken
	if res.failed != 3 || res.wrong != 3 {
		t.Errorf("failed = %d, wrong = %d; want 3, 3", res.failed, res.wrong)
	}
}

// TestPassTotalsCompareWholePasses checks that a pass with an errored op
// is neither compared nor taken as the reference, and that a whole pass
// whose totals differ from the first whole one is one failed check.
func TestPassTotalsCompareWholePasses(t *testing.T) {
	res := newResult()
	var first *passTotals
	short := passTotals{vmCounts: vmCounts{cycles: 10}}
	full := passTotals{vmCounts: vmCounts{cycles: 30}}
	checkPass(res, 0, false, short, &first)
	if first != nil {
		t.Fatalf("a pass with an errored op became the reference")
	}
	checkPass(res, 1, true, full, &first)
	checkPass(res, 2, true, full, &first)
	checkPass(res, 3, false, short, &first)
	if res.failed != 0 {
		t.Fatalf("failed = %d after matching and partial passes, want 0", res.failed)
	}
	checkPass(res, 4, true, passTotals{vmCounts: vmCounts{cycles: 31}}, &first)
	if res.failed != 1 || res.wrong != 1 {
		t.Errorf("failed = %d, wrong = %d; want 1, 1", res.failed, res.wrong)
	}
}

// TestClosedLoopWholeRounds checks that the serving loop runs its warm-up
// rounds before the window opens, stops only at a round boundary, and
// counts a wrong output as a failed op, so the failed share is the same in
// every run.
func TestClosedLoopWholeRounds(t *testing.T) {
	res := newResult()
	o := options{seconds: 20 * time.Millisecond, clients: 2}
	opened := 0
	lats, _ := closedLoop(o, 3, 2, func(n int) error {
		time.Sleep(time.Millisecond)
		if n%3 == 1 {
			return wrongErr("deliberately wrong expected output")
		}
		return nil
	}, func() { opened = res.attempted }, res)
	if opened != 6 {
		t.Errorf("window opened after %d ops, want the 6 of two warm-up rounds", opened)
	}
	if res.attempted <= 6 || res.attempted%3 != 0 {
		t.Fatalf("attempted %d ops, want a multiple of 3 above the warm-up's 6", res.attempted)
	}
	// One op in three fails, in the warm-up and in the window alike; only
	// the window's successful ops have latencies.
	if window := res.attempted - 6; res.failed*3 != res.attempted || res.wrong != res.failed || len(lats) != window*2/3 {
		t.Errorf("attempted %d, failed %d, wrong %d, latencies %d", res.attempted, res.failed, res.wrong, len(lats))
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metrics the program emits
// and the ones BENCHMARK.json declares the same.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers, names []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var wantE2E, wantLayers, wantNames []string
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, m.name+" "+m.unit)
	}
	for _, m := range perLayer() {
		wantLayers = append(wantLayers, m.name+" "+m.unit)
	}
	for n := range workloads {
		wantNames = append(wantNames, n)
	}
	slices.Sort(names)
	slices.Sort(wantNames)
	if !slices.Equal(e2e, wantE2E) || !slices.Equal(layers, wantLayers) || !slices.Equal(names, wantNames) {
		t.Errorf("BENCHMARK.json declares %v / %v / %v; the program emits %v / %v / %v",
			e2e, layers, names, wantE2E, wantLayers, wantNames)
	}
}
