package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"carat/internal/cc"
	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/server"
	"carat/internal/vm"
)

// serveEnv is caratd started in-process on loopback with its default
// configuration and the ballast service off, plus the benchmark's client.
type serveEnv struct {
	srv       *server.Server
	base      string
	client    *http.Client
	freePages uint64            // free pages once set-up finished
	refs      []string          // serve-run: the precompiled module refs
	counters  map[string]uint64 // server counters when the window opened
}

func startServer(clients int) (*serveEnv, error) {
	cfg := server.DefaultServerConfig()
	cfg.Ballast.Disabled = true
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start()
	if err != nil {
		return nil, err
	}
	return &serveEnv{
		srv:  srv,
		base: "http://" + addr,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		},
	}, nil
}

// close drains the server and returns its lifetime invariant violations.
func (e *serveEnv) close() uint64 {
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, _ := e.srv.Drain(ctx) // a listener shutdown error leaves nothing to report; violations are what matter
	return v
}

// post sends one JSON request and decodes the reply into out; any status
// but 200 is an error.
func (e *serveEnv) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

type moduleReq struct {
	Tenant string `json:"tenant"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Source string `json:"source"`
	Level  string `json:"level"`
}

type moduleResp struct {
	Ref string `json:"ref"`
}

type runReq struct {
	Tenant string `json:"tenant"`
	Ref    string `json:"ref"`
	Seed   int64  `json:"seed"`
}

type runResp struct {
	Exit   int64   `json:"exit"`
	Cycles uint64  `json:"cycles"`
	Output []int64 `json:"output"`
	Digest string  `json:"digest"`
}

func (e *serveEnv) compile(kind, name, source string) (string, error) {
	var mr moduleResp
	err := e.post("/v1/modules", moduleReq{Tenant: "bench", Kind: kind, Name: name, Source: source, Level: "carat"}, &mr)
	return mr.Ref, err
}

func (e *serveEnv) run(ref string, seed int64) (runResp, error) {
	var rr runResp
	err := e.post("/v1/run", runReq{Tenant: "bench", Ref: ref, Seed: seed}, &rr)
	return rr, err
}

// openWindow snapshots the server counters the traced run reports as
// deltas over the measured window.
func (e *serveEnv) openWindow() {
	reg := e.srv.Obs()
	e.counters = map[string]uint64{
		"hits":      reg.Counter("carat.server.module_cache.hits").Get(),
		"misses":    reg.Counter("carat.server.module_cache.misses").Get(),
		"evictions": reg.Counter("carat.server.module_cache.evictions").Get(),
		"reqs":      reg.Histogram("carat.server.request_ns").Count(),
		"reqns":     reg.Histogram("carat.server.request_ns").Sum(),
	}
}

// serverLayer reports the server's own counters over the window.
func (e *serveEnv) serverLayer(res *result) {
	reg := e.srv.Obs()
	hits := reg.Counter("carat.server.module_cache.hits").Get() - e.counters["hits"]
	misses := reg.Counter("carat.server.module_cache.misses").Get() - e.counters["misses"]
	res.layer["server.module_cache.hit_ratio"] = ratio(hits, hits+misses)
	res.layer["server.module_cache.evictions"] = float64(reg.Counter("carat.server.module_cache.evictions").Get() - e.counters["evictions"])
	reqs := reg.Histogram("carat.server.request_ns").Count() - e.counters["reqs"]
	ns := reg.Histogram("carat.server.request_ns").Sum() - e.counters["reqns"]
	res.layer["server.request_us"] = ratio(ns, reqs) / 1e3
}

// checkBalance verifies that the machine is back where set-up left it:
// no invariant violations, no page owned by any process, every page
// granted for a request freed again. A breach counts as a failed op.
func (e *serveEnv) checkBalance(res *result) {
	k := e.srv.Kernel()
	if v := e.srv.Obs().Counter("carat.server.invariant_violations").Get(); v != 0 {
		res.fail(1, true, "%d invariant violations", v)
	}
	if n := k.OwnedPageCount(); n != 0 {
		res.fail(1, true, "%d pages still owned after the window", n)
	}
	if free := k.Alloc.FreePages(); free != e.freePages {
		res.fail(1, true, "free pages %d after the window, %d after set-up", free, e.freePages)
	}
}

// opQueue hands out op indices to the closed-loop clients: during the
// warm-up up to stop, and in the window until its deadline has passed,
// stopping only at a round boundary, so every run attempts whole rounds.
type opQueue struct {
	mu       sync.Mutex
	start    int // first op of the window
	next     int
	round    int
	stop     int       // warm-up: the op after the last one
	deadline time.Time // window: stop at the first round boundary past it
}

func (q *opQueue) take() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stop > 0 && q.next == q.stop {
		return 0, false
	}
	if q.stop == 0 && q.next > q.start && q.next%q.round == 0 && time.Now().After(q.deadline) {
		return 0, false
	}
	n := q.next
	q.next++
	return n, true
}

// closedLoop runs warm rounds of ops untimed, calls open, and then runs
// the measured window from op warm*round on, with o.clients clients each
// issuing its next op only after the previous one completed. Warm-up ops
// are checked and counted like the window's. It returns the window's
// per-op latencies in ms (failed ops excluded) and its length.
//
// The warm-up is there because the first requests of a fresh server are
// slower than the rest, by an amount that varies from run to run: in
// serve-run the kernel's next-fit page allocator walks the capsule grants
// across the whole 512 MB machine, so until it has wrapped once every
// grant zeroes pages the OS has not mapped yet (~8 ms a request against
// ~2 ms after), and serve-compile's first second ran at half its later
// rate.
func closedLoop(o options, round, warm int, op func(n int) error, open func(), res *result) ([]float64, time.Duration) {
	if warm > 0 {
		drive(o.clients, &opQueue{round: round, stop: warm * round}, op, res)
	}
	open()
	start := time.Now()
	q := &opQueue{start: warm * round, next: warm * round, round: round, deadline: start.Add(o.seconds)}
	lats := drive(o.clients, q, op, res)
	return lats, time.Since(start)
}

// drive runs clients closed-loop clients over the ops q hands out and
// returns the latencies in ms of the ops that succeeded.
func drive(clients int, q *opQueue, op func(n int) error, res *result) []float64 {
	var mu sync.Mutex
	var lats []float64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, ok := q.take()
				if !ok {
					return
				}
				t0 := time.Now()
				err := op(n)
				lat := time.Since(t0).Seconds() * 1e3
				mu.Lock()
				res.attempted++
				if err != nil {
					var we wrongErr
					res.fail(1, errors.As(err, &we), "op %d: %v", n, err)
				} else {
					lats = append(lats, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lats
}

// wrongErr is an op error meaning the output failed a check, as opposed
// to the request failing.
type wrongErr string

func (e wrongErr) Error() string { return string(e) }

// reportLatency fills the client-side end-to-end metrics. The mean is the
// gated latency: on a shared host a request runs at one of two speeds
// (serve-run requests take ~2.2 ms or ~4 ms on the reference host), the
// median falls between the two and jumps with their shares from run to
// run, while the mean moves in proportion. The median and p99 are printed.
func reportLatency(res *result, lats []float64, window time.Duration) {
	res.e2e["throughput"] = float64(len(lats)) / window.Seconds()
	res.e2e["latency_mean_ms"] = mean(lats)
	res.info["latency_p50_ms"] = metric{median(lats), "ms"}
	if p99, ok := percentile(lats, 0.99); ok {
		res.info["latency_p99_ms"] = metric{p99, "ms"}
	}
}

// requestSeed is the per-request seed of op n: an opaque token caratd
// folds into the result digest.
func requestSeed(seed int64, n int) int64 {
	// splitmix64 of (seed, n): a pure function of both.
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n) + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// Warm-up rounds before each serving window (see closedLoop): serve-run's
// 300 rounds are 1,800 requests, about 14 wraps of the page allocator;
// serve-compile's 5 rounds are 310 compiles, its first second or two.
const (
	serveRunWarmRounds     = 300
	serveCompileWarmRounds = 5
)

// serveRun: one client runs six precompiled CARAT-C modules by ref,
// round-robin, each request with its own seed; every response is checked
// against the Go model of its program.
func serveRun(o options, _ kernelRefs, tr *tracer) (*result, error) {
	// One client, not nproc: a serve-run request is mostly a byte loop
	// clearing a 4 MB capsule, and two such loops at once contend for the
	// memory system. On a contended host two clients served barely more
	// than one (279-350 against 280-326 op/s) at twice the latency, and
	// their throughput spread 17% over five seeds against 5% for one.
	o.clients = 1
	res := newResult()
	progs := servePrograms(o.seed)
	env, setupS, err := setup(func() (*serveEnv, error) {
		env, err := startServer(o.clients)
		if err != nil {
			return nil, err
		}
		for i, p := range progs {
			ref, err := env.compile("cc", fmt.Sprintf("load-%d", i), p.Source())
			if err != nil {
				env.close()
				return nil, err
			}
			env.refs = append(env.refs, ref)
		}
		env.freePages = env.srv.Kernel().Alloc.FreePages()
		return env, nil
	}, func(e *serveEnv) { e.close() }, false)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS

	type want struct {
		out  []int64
		exit int64
	}
	wants := make([]want, len(progs))
	for i, p := range progs {
		wants[i].out, wants[i].exit = p.Model()
	}
	var mu sync.Mutex
	cycles := make([]uint64, len(progs))
	digests := map[int]string{} // op index -> digest, for the first round
	lats, window := closedLoop(o, len(progs), serveRunWarmRounds, func(n int) error {
		i := n % len(progs)
		rr, err := env.run(env.refs[i], requestSeed(o.seed, n))
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if rr.Exit != wants[i].exit || !slices.Equal(rr.Output, wants[i].out) {
			return wrongErr(fmt.Sprintf("module %d: exit %d output %v, model says exit %d output %v",
				i, rr.Exit, rr.Output, wants[i].exit, wants[i].out))
		}
		if cycles[i] == 0 {
			cycles[i] = rr.Cycles
		} else if rr.Cycles != cycles[i] {
			return wrongErr(fmt.Sprintf("module %d: %d modeled cycles, an earlier run took %d", i, rr.Cycles, cycles[i]))
		}
		if n < len(progs) {
			digests[n] = rr.Digest
		}
		return nil
	}, env.openWindow, res)
	reportLatency(res, lats, window)
	var roundCycles uint64
	for _, c := range cycles {
		roundCycles += c
	}
	res.e2e["model_cycles"] = float64(roundCycles)

	// Identical (ref, seed) requests must give identical digests.
	for n, d := range digests {
		rr, err := env.run(env.refs[n], requestSeed(o.seed, n))
		if err != nil || rr.Digest != d {
			res.fail(1, true, "replayed request %d: digest %q, first run gave %q (err %v)", n, rr.Digest, d, err)
		}
	}
	if o.trace {
		env.serverLayer(res)
	}
	env.checkBalance(res)
	if v := env.close(); v != 0 {
		res.fail(1, true, "%d invariant violations at drain", v)
	}
	if o.trace {
		if err := replayRuns(progs, res, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serveCompile: nproc clients POST a seeded corpus to /v1/modules at level
// carat, every request under a unique name so every one misses the cache.
// After the window a seeded sample of the last round's refs is run.
func serveCompile(o options, refs kernelRefs, tr *tracer) (*result, error) {
	res := newResult()
	var corpus []compileOp
	env, setupS, err := setup(func() (*serveEnv, error) {
		corpus = compileCorpus(o.seed)
		env, err := startServer(o.clients)
		if err != nil {
			return nil, err
		}
		env.freePages = env.srv.Kernel().Alloc.FreePages()
		return env, nil
	}, func(e *serveEnv) { e.close() }, false)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS

	var mu sync.Mutex
	last := make([]string, len(corpus)) // ref of each corpus slot, latest round
	lats, window := closedLoop(o, len(corpus), serveCompileWarmRounds, func(n int) error {
		op := corpus[n%len(corpus)]
		ref, err := env.compile(op.Kind, fmt.Sprintf("%s-%d", op.Name, n), op.Source)
		if err != nil {
			return err
		}
		mu.Lock()
		last[n%len(corpus)] = ref
		mu.Unlock()
		return nil
	}, env.openWindow, res)
	reportLatency(res, lats, window)
	if o.trace {
		env.serverLayer(res)
	}

	// Run every kernel of the last round and a seeded third of its
	// generated programs; kernels must return what the baseline
	// interpreter returned, programs what their Go model computes.
	rng := rand.New(rand.NewSource(o.seed))
	var kernelCycles uint64
	for i, op := range corpus {
		if last[i] == "" || (op.Prog != nil && rng.Intn(3) != 0) {
			continue
		}
		rr, err := env.run(last[i], int64(i))
		switch {
		case err != nil:
			res.fail(1, false, "running %s: %v", op.Name, err)
		case op.Prog != nil:
			out, exit := op.Prog.Model()
			if rr.Exit != exit || !slices.Equal(rr.Output, out) {
				res.fail(1, true, "%s: exit %d output %v, model says exit %d output %v", op.Name, rr.Exit, rr.Output, exit, out)
			}
		default:
			kernelCycles += rr.Cycles
			if want := refs["test"][op.Kernel]; rr.Exit != want {
				res.fail(1, true, "%s: returned %d, baseline interpreter returned %d", op.Kernel, rr.Exit, want)
			}
		}
	}
	res.e2e["model_cycles"] = float64(kernelCycles)
	env.checkBalance(res)
	if v := env.close(); v != 0 {
		res.fail(1, true, "%d invariant violations at drain", v)
	}
	if o.trace {
		if err := replayCompiles(corpus, res, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayRounds is how many rounds of the serve-run mix the traced run
// replays through the public functions the run handler calls.
const replayRounds = 100

// replayRuns compiles the serve-run programs and runs replayRounds rounds
// of them the way caratd's /v1/run handler does — vm.Load onto a shared
// machine as a capsule, Run, Release, and a fold of the run's private
// registry into the shared one — with a span around each call, plus a
// probe of the kernel's capsule grant and release.
func replayRuns(progs []ccProgram, res *result, tr *tracer) error {
	tc, trust, err := newToolchain()
	if err != nil {
		return err
	}
	st := &compileStats{}
	mods := make([]*ir.Module, len(progs))
	for i, p := range progs {
		t0 := tr.start()
		m, err := cc.Compile(fmt.Sprintf("load-%d", i), p.Source())
		if err != nil {
			return err
		}
		tr.end("cc.compile", t0)
		if mods[i], err = compileSigned(m, passes.LevelTracking, tc, trust, tr, st); err != nil {
			return err
		}
	}
	scfg := server.DefaultServerConfig()
	shared := obs.NewRegistry()
	k := kernel.NewWith(scfg.MemBytes, shared)
	cfg := vm.Config{
		Mode: vm.ModeCARAT, GuardMech: guard.MechRange, Kernel: k, Capsule: true,
		HeapBytes: scfg.HeapBytes, StackBytes: scfg.StackBytes, MaxInstrs: scfg.MaxInstrs,
		Predecode: true, XCache: true,
	}
	var instrs uint64
	var runNS int64
	var round vmCounts
	for r := 0; r < replayRounds; r++ {
		for i, m := range mods {
			if err := probeGrant(k, scfg.HeapBytes, tr); err != nil {
				return err
			}
			runReg := obs.NewRegistry()
			cfg.Obs = runReg
			t0 := tr.start()
			v, err := vm.Load(m, cfg)
			if err != nil {
				return err
			}
			tr.end("vm.load", t0)
			t0 = time.Now()
			ret, err := v.Run()
			runNS += time.Since(t0).Nanoseconds()
			tr.end("vm.run", t0)
			if err != nil {
				return err
			}
			t0 = tr.start()
			if err := v.Release(); err != nil {
				return err
			}
			tr.end("vm.release", t0)
			merge(shared, runReg, tr)

			out, exit := progs[i].Model()
			if ret != exit || !slices.Equal(v.Output, out) {
				res.fail(1, true, "replayed module %d: exit %d, model says %d", i, ret, exit)
			}
			instrs += v.Instrs
			if r == 0 {
				round.add(countsOf(v, runReg))
			}
		}
	}
	res.layer["cc.compile_us"] = tr.medianUS("cc.compile")
	compileLayer(res, tr, st)
	res.layer["vm.load_us"] = tr.medianUS("vm.load")
	res.layer["vm.run_us"] = tr.medianUS("vm.run")
	res.layer["vm.release_us"] = tr.medianUS("vm.release")
	round.vmLayer(res)
	res.layer["vm.minstr_s"] = float64(instrs) / float64(runNS) * 1e3
	res.layer["kernel.grant_us"] = tr.medianUS("kernel.grant")
	res.layer["kernel.release_us"] = tr.medianUS("kernel.release")
	res.layer["obs.merge_us"] = tr.medianUS("obs.merge")
	return nil
}

// replayCompiles compiles one round of the serve-compile corpus the way
// caratd's /v1/modules handler does: front end, pass pipeline, signing and
// verification, with a span around each call.
func replayCompiles(corpus []compileOp, res *result, tr *tracer) error {
	tc, trust, err := newToolchain()
	if err != nil {
		return err
	}
	st := &compileStats{}
	for _, op := range corpus {
		var m *ir.Module
		t0 := tr.start()
		if op.Kind == "cc" {
			m, err = cc.Compile(op.Name, op.Source)
			tr.end("cc.compile", t0)
		} else {
			m, err = ir.Parse(op.Source)
			tr.end("ir.parse", t0)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", op.Name, err)
		}
		if _, err := compileSigned(m, passes.LevelTracking, tc, trust, tr, st); err != nil {
			return fmt.Errorf("%s: %w", op.Name, err)
		}
	}
	res.layer["cc.compile_us"] = tr.medianUS("cc.compile")
	res.layer["ir.parse_us"] = tr.medianUS("ir.parse")
	compileLayer(res, tr, st)
	return nil
}

// compileLayer reports the pass pipeline and signing metrics.
func compileLayer(res *result, tr *tracer, st *compileStats) {
	res.layer["passes.run_us"] = tr.medianUS("passes.run")
	res.layer["passes.analysis_hit_ratio"] = ratio(st.analysisHits, st.analysisHits+st.misses)
	res.layer["passes.guards_remaining"] = float64(st.guardsRemaining)
	res.layer["signing.sign_us"] = tr.medianUS("signing.sign")
	res.layer["signing.verify_us"] = tr.medianUS("signing.verify")
}
