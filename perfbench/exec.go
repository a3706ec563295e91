package main

import (
	"crypto/rand"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/passes"
	rt "carat/internal/runtime"
	"carat/internal/signing"
	"carat/internal/vm"
	"carat/internal/workload"
)

// moveKernels is exec-moves' kernel subset: the ten kernels (of 22) whose
// runs are short enough for whole passes to fit the run and long enough
// to take moves at movePeriod, spanning translation-cache hit rates from
// 0 (xz_s) to ~1 (omnetpp_s). FT and lbm_s are left out: at this rate
// they alone would take most of a pass.
var moveKernels = []string{
	"HPCCG", "CG", "canneal", "freqmine", "streamcluster",
	"mcf_s", "nab_s", "omnetpp_s", "xalancbmk_s", "xz_s",
}

// movePeriod is exec-moves' fixed modeled move rate: one Figure 9
// worst-case page move every movePeriod retired instructions.
const movePeriod = 500_000

// execKernel is one compiled, signed, verified kernel.
type execKernel struct {
	name string
	mod  *ir.Module
	want int64 // baseline-interpreter return value at ScaleSmall
}

// compileKernels builds and compiles the named kernels (all 22 when names
// is nil) at LevelTracking, signs them and verifies the signatures: the
// toolchain-to-loader path of §2.2.
func compileKernels(names []string, refs kernelRefs, tr *tracer, st *compileStats) ([]execKernel, error) {
	tc, trust, err := newToolchain()
	if err != nil {
		return nil, err
	}
	var out []execKernel
	for _, w := range workload.All() {
		if names != nil && !slices.Contains(names, w.Name) {
			continue
		}
		mod, err := compileSigned(w.Build(workload.ScaleSmall), passes.LevelTracking, tc, trust, tr, st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		out = append(out, execKernel{name: w.Name, mod: mod, want: refs["small"][w.Name]})
	}
	return out, nil
}

// compileStats accumulates the pass pipeline's counters over the modules
// one round compiles.
type compileStats struct {
	guardsRemaining      int
	analysisHits, misses uint64
}

// newToolchain returns a signing identity and a trust store that trusts
// it.
func newToolchain() (*signing.Toolchain, *signing.TrustStore, error) {
	tc, err := signing.NewToolchain("perfbench", rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	trust := signing.NewTrustStore()
	trust.Trust(tc.Name, tc.Public())
	return tc, trust, nil
}

// compileSigned runs the pass pipeline over m, signs the result and
// verifies the signature, as caratd's compile path and core.Compiler do,
// with a span around each layer's call.
func compileSigned(m *ir.Module, lvl passes.Level, tc *signing.Toolchain, trust *signing.TrustStore, tr *tracer, st *compileStats) (*ir.Module, error) {
	pm := passes.Build(lvl)
	pm.Workers = 1
	t0 := tr.start()
	if err := pm.Run(m); err != nil {
		return nil, err
	}
	tr.end("passes.run", t0)
	if st != nil {
		cs := pm.AnalysisStats()
		st.guardsRemaining += pm.Stats.GuardsRemaining
		st.analysisHits += cs.Hits
		st.misses += cs.Misses
	}
	t0 = tr.start()
	sm := tc.Sign(m)
	tr.end("signing.sign", t0)
	t0 = tr.start()
	if err := trust.Verify(sm); err != nil {
		return nil, err
	}
	tr.end("signing.verify", t0)
	return sm.Module, nil
}

// vmCounts are the modeled and counted totals of one or more VM runs.
type vmCounts struct {
	cycles, instrs, guardChecks     uint64
	xcHits, xcMisses, xcInvs        uint64
	deopts, icHits, icMisses, moves uint64
}

// countsOf reads v's counters; moves come from the run's registry.
func countsOf(v *vm.VM, reg *obs.Registry) vmCounts {
	c := vmCounts{cycles: v.Cycles, instrs: v.Instrs, guardChecks: v.GuardChecks}
	c.xcHits, c.xcMisses, c.xcInvs = v.XCacheStats()
	_, c.deopts, c.icHits, c.icMisses = v.ClosureStats()
	c.moves = reg.Counter("carat.runtime.moves").Get()
	return c
}

func (c *vmCounts) add(o vmCounts) {
	c.cycles += o.cycles
	c.instrs += o.instrs
	c.guardChecks += o.guardChecks
	c.xcHits += o.xcHits
	c.xcMisses += o.xcMisses
	c.xcInvs += o.xcInvs
	c.deopts += o.deopts
	c.icHits += o.icHits
	c.icMisses += o.icMisses
	c.moves += o.moves
}

// vmLayer reports the per-layer counts of one round.
func (c vmCounts) vmLayer(res *result) {
	res.layer["vm.closure.deopts"] = float64(c.deopts)
	res.layer["vm.closure.ic_hit_ratio"] = ratio(c.icHits, c.icHits+c.icMisses)
	res.layer["guard.checks"] = float64(c.guardChecks)
	res.layer["guard.xcache_hit_ratio"] = ratio(c.xcHits, c.xcHits+c.xcMisses)
	res.layer["guard.xcache_invalidations"] = float64(c.xcInvs)
}

// passTotals are the modeled and counted totals of one suite pass.
type passTotals struct {
	vmCounts
	moveCycles uint64
	pauseP99   float64
}

func execSuite(o options, refs kernelRefs, tr *tracer) (*result, error) {
	return execWorkload(o, refs, tr, nil, false)
}

func execMoves(o options, refs kernelRefs, tr *tracer) (*result, error) {
	return execWorkload(o, refs, tr, moveKernels, true)
}

// execWorkload runs whole passes over the kernels, in paper order, until
// the window has elapsed. One op is vm.Load + Run + Release of one kernel
// on a fresh private machine on the closure tier; with moves, the Figure
// 9 injector moves the worst-case page every movePeriod instructions
// under the incremental protocol.
func execWorkload(o options, refs kernelRefs, tr *tracer, names []string, moves bool) (*result, error) {
	res := newResult()
	st := &compileStats{}
	ks, setupS, err := setup(func() ([]execKernel, error) {
		*st = compileStats{}
		return compileKernels(names, refs, tr, st)
	}, func([]execKernel) {}, true)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS

	cfg := vm.DefaultConfig()
	cfg.Closure = true
	cfg.Incremental = moves

	var lats []float64
	var first *passTotals
	var pass0 passTotals
	var runSec, instrs float64
	kernelRun := map[string][2]float64{} // name -> {instrs, run seconds}
	start := time.Now()
	var elapsed time.Duration
	for pass := 0; pass == 0 || time.Since(start) < o.seconds; pass++ {
		agg := obs.NewRegistry()
		var pt passTotals
		whole := true // every op of the pass ran without error
		for _, k := range ks {
			res.attempted++
			op, err := runKernel(k, cfg, moves, tr, agg)
			if err != nil {
				res.fail(1, false, "%s: %v", k.name, err)
				whole = false
				continue
			}
			lats = append(lats, op.latency.Seconds()*1e3)
			runSec += op.run.Seconds()
			instrs += float64(op.instrs)
			kr := kernelRun[k.name]
			kernelRun[k.name] = [2]float64{kr[0] + float64(op.instrs), kr[1] + op.run.Seconds()}
			checkKernel(res, k, op, moves)
			pt.add(op.vmCounts)
		}
		elapsed = time.Since(start)
		pt.moveCycles = agg.Counter("carat.runtime.move_cycles").Get()
		pt.pauseP99 = agg.Histogram(rt.PauseHist).Quantile(0.99)
		if pass == 0 {
			pass0 = pt
		}
		checkPass(res, pass, whole, pt, &first)
	}
	if first == nil {
		// Every pass had an errored op, already counted as failed; report
		// the first pass's totals, which lack that op's counts.
		first = &pass0
	}

	res.e2e["throughput"] = float64(len(lats)) / elapsed.Seconds()
	res.e2e["latency_mean_ms"] = mean(lats)
	res.info["latency_p50_ms"] = metric{median(lats), "ms"}
	res.e2e["model_cycles"] = float64(first.cycles)
	res.info["host_minstr_s"] = metric{instrs / runSec / 1e6, "Minstr/s"}
	if moves {
		res.info["model_pause_p99_cycles"] = metric{first.pauseP99, "cycles"}
	}

	if o.trace {
		for i := 0; i < 10; i++ {
			probeGrant(kernel.NewWith(cfg.MemBytes, nil), cfg.HeapBytes, tr)
		}
		res.layer["passes.run_us"] = tr.medianUS("passes.run")
		res.layer["passes.analysis_hit_ratio"] = ratio(st.analysisHits, st.analysisHits+st.misses)
		res.layer["passes.guards_remaining"] = float64(st.guardsRemaining)
		res.layer["signing.sign_us"] = tr.medianUS("signing.sign")
		res.layer["signing.verify_us"] = tr.medianUS("signing.verify")
		res.layer["vm.load_us"] = tr.medianUS("vm.load")
		res.layer["vm.run_us"] = tr.medianUS("vm.run")
		res.layer["vm.release_us"] = tr.medianUS("vm.release")
		first.vmLayer(res)
		res.layer["vm.minstr_s"] = instrs / runSec / 1e6
		for name, kr := range kernelRun {
			res.layer["vm.minstr_s."+name] = kr[0] / kr[1] / 1e6
		}
		res.layer["kernel.grant_us"] = tr.medianUS("kernel.grant")
		res.layer["kernel.release_us"] = tr.medianUS("kernel.release")
		res.layer["kernel.move_us"] = tr.medianUS("kernel.move")
		res.layer["runtime.moves"] = float64(first.moves)
		res.layer["runtime.move_model_cycles"] = float64(first.moveCycles)
		res.layer["runtime.pause_p99_cycles"] = first.pauseP99
		res.layer["obs.merge_us"] = tr.medianUS("obs.merge")
	}
	return res, nil
}

// checkPass compares the modeled totals of a whole pass (one in which no
// op errored) with the first whole pass's, which it records in *first. A
// pass with an errored op lacks that op's counts, so it is not compared;
// a mismatch is one failed check.
func checkPass(res *result, pass int, whole bool, pt passTotals, first **passTotals) {
	switch {
	case !whole:
	case *first == nil:
		*first = &pt
	case pt != **first:
		res.fail(1, true, "pass %d modeled totals %+v differ from the first whole pass's %+v", pass, pt, **first)
	}
}

// checkKernel counts op as failed when k returned other than the baseline
// interpreter, left pages owned or not freed, or (with moves) took none.
func checkKernel(res *result, k execKernel, op kernelOp, moves bool) {
	switch {
	case op.ret != k.want:
		res.fail(1, true, "%s returned %d, baseline interpreter returned %d", k.name, op.ret, k.want)
	case op.ownedPages != 0 || op.freeAfter != op.freeBefore:
		res.fail(1, true, "%s left the machine unbalanced: %d owned pages, free pages %d -> %d",
			k.name, op.ownedPages, op.freeBefore, op.freeAfter)
	case moves && op.moves == 0:
		res.fail(1, true, "%s took no moves at period %d", k.name, movePeriod)
	}
}

// kernelOp is the outcome of one exec op.
type kernelOp struct {
	vmCounts
	ret                   int64
	latency, run          time.Duration
	ownedPages            int
	freeBefore, freeAfter uint64
}

// runKernel loads k on a fresh private machine, runs and releases it, and
// merges its metrics into agg the way caratd folds a run's private
// registry into the shared one.
func runKernel(k execKernel, cfg vm.Config, moves bool, tr *tracer, agg *obs.Registry) (kernelOp, error) {
	var op kernelOp
	// The previous op's machine is garbage by now. Collecting it and
	// returning its memory to the OS first makes every op start alike:
	// the next 256 MB machine then comes from unmapped pages, of which
	// only the ones the run touches become resident. Collecting alone
	// leaves it to the scavenger whether the machine reuses resident
	// memory, which the runtime clears in full, so that peak RSS reads
	// either ~386 or ~528 MB from run to run.
	debug.FreeOSMemory()
	reg := obs.NewRegistry()
	cfg.Obs = reg
	start := time.Now()
	// The machine is created here rather than inside vm.Load, so that its
	// pages can be checked after Release.
	cfg.Kernel = kernel.NewWith(cfg.MemBytes, reg)
	op.freeBefore = cfg.Kernel.Alloc.FreePages()
	t0 := tr.start()
	v, err := vm.Load(k.mod, cfg)
	if err != nil {
		return op, err
	}
	tr.end("vm.load", t0)
	if moves {
		v.SetMovePolicy(movePeriod, func() error {
			// InjectWorstCaseMove, spelled out so the kernel's move
			// request gets its own span.
			page, ok := v.Runtime().WorstCasePage()
			if !ok {
				return fmt.Errorf("no allocations to move")
			}
			t0 := tr.start()
			_, err := v.Process().RequestMove(page, 1)
			tr.end("kernel.move", t0)
			return err
		})
	}
	runStart := time.Now()
	ret, runErr := v.Run()
	op.run = time.Since(runStart)
	tr.end("vm.run", runStart)
	t0 = tr.start()
	relErr := v.Release()
	tr.end("vm.release", t0)
	op.latency = time.Since(start)
	if runErr != nil {
		return op, runErr
	}
	if relErr != nil {
		return op, relErr
	}

	merge(agg, reg, tr)
	op.ret = ret
	op.vmCounts = countsOf(v, reg)
	op.ownedPages = cfg.Kernel.OwnedPageCount()
	op.freeAfter = cfg.Kernel.Alloc.FreePages()
	return op, nil
}

// merge folds a run's private registry into a shared one, as caratd does
// after every request.
func merge(dst, src *obs.Registry, tr *tracer) {
	t0 := tr.start()
	snap := src.Snapshot()
	for name, val := range snap.Counters {
		dst.Counter(name).Add(val)
	}
	for name, hs := range snap.Histograms {
		dst.Histogram(name).Merge(hs)
	}
	tr.end("obs.merge", t0)
}

// probeGrant times one region grant and release of the given size on k:
// the page-frame work vm.Load and VM.Release do inside their spans.
func probeGrant(k *kernel.Kernel, regionBytes uint64, tr *tracer) error {
	p := k.NewProcess()
	t0 := tr.start()
	base, err := p.GrantRegion(regionBytes, guard.PermRW)
	if err != nil {
		return err
	}
	tr.end("kernel.grant", t0)
	t0 = tr.start()
	if err := p.ReleaseRegion(base, (regionBytes+kernel.PageSize-1)/kernel.PageSize*kernel.PageSize); err != nil {
		return err
	}
	tr.end("kernel.release", t0)
	return nil
}
