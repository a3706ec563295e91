package main

import (
	"fmt"
	"math/rand"
	"strings"

	"carat/internal/workload"
)

// stage is one loadgen-shaped CARAT-C function: it fills a heap buffer
// from a multiplicative recurrence, counts residues in a global table,
// sums the buffer and prints the sum. Loops >= BufLen, so every buffer
// slot is written before it is read and the result never depends on what
// malloc hands back.
type stage struct {
	Seed, Loops, Mult, BufLen int64
}

// ccProgram is one generated CARAT-C program: its stages run in order,
// each seeded from the running accumulator, then main prints the residue
// table and the accumulator and returns the accumulator's low 16 bits.
type ccProgram struct {
	Start  int64
	Stages []stage
}

// Source renders the program as CARAT-C.
func (p ccProgram) Source() string {
	var b strings.Builder
	b.WriteString("global table: [8]int;\n")
	for j, st := range p.Stages {
		fmt.Fprintf(&b, `func stage%d(seed: int): int {
    var buf = malloc(8 * %d);
    var s = seed + %d;
    for (var i = 0; i < %d; i = i + 1) {
        s = (s * %d + i) & 1048575;
        buf[i %% %d] = s;
        table[s & 7] = table[s & 7] + 1;
    }
    var t = 0;
    for (var i = 0; i < %d; i = i + 1) { t = t + buf[i]; }
    free(buf);
    print_int(t);
    return t;
}
`, j, st.BufLen, st.Seed, st.Loops, st.Mult, st.BufLen, st.BufLen)
	}
	fmt.Fprintf(&b, "func main(): int {\n    var acc = %d;\n", p.Start)
	for j := range p.Stages {
		fmt.Fprintf(&b, "    acc = (acc * 7 + stage%d(acc & 1023)) & 1048575;\n", j)
	}
	b.WriteString(`    for (var b = 0; b < 8; b = b + 1) { print_int(table[b]); }
    print_int(acc);
    return acc & 65535;
}
`)
	return b.String()
}

// Model computes, in Go, the output and exit value the program must
// produce: the independent reference every CARAT-C response is checked
// against.
func (p ccProgram) Model() (output []int64, exit int64) {
	var table [8]int64
	acc := p.Start
	for _, st := range p.Stages {
		s := acc&1023 + st.Seed
		buf := make([]int64, st.BufLen)
		for i := int64(0); i < st.Loops; i++ {
			s = (s*st.Mult + i) & 1048575
			buf[i%st.BufLen] = s
			table[s&7]++
		}
		var t int64
		for _, x := range buf {
			t += x
		}
		output = append(output, t)
		acc = (acc*7 + t) & 1048575
	}
	output = append(output, table[:]...)
	output = append(output, acc)
	return output, acc & 65535
}

// randStage draws a stage's constants from rng. The caller fixes the shape
// (loop count and buffer length), so the seed changes a program's values
// but not the work of compiling or running it: with seeded shapes,
// serve-compile's latency moved by 15% from one seed to another.
func randStage(rng *rand.Rand, loops, bufLen int64) stage {
	return stage{
		Seed:   rng.Int63n(1 << 16),
		Loops:  loops,
		Mult:   31 + 2*rng.Int63n(16),
		BufLen: bufLen,
	}
}

// servePrograms returns the six single-stage programs serve-run cycles
// through. Slot i has the loop count and buffer length of caratd's loadgen
// module i; the seed draws the constants.
func servePrograms(seed int64) []ccProgram {
	rng := rand.New(rand.NewSource(seed))
	progs := make([]ccProgram, 6)
	for i := range progs {
		progs[i] = ccProgram{
			Start:  rng.Int63n(1 << 20),
			Stages: []stage{randStage(rng, 200+int64(i%5)*150, 64+int64(i%3)*64)},
		}
	}
	return progs
}

// compileStageCounts are the sizes, in stage functions, of the generated
// programs in one serve-compile round: one each of 16 to 55 stages. There
// are more of them than kernels, so the median request compiles a
// program large enough that the front end and the pass pipeline, not the
// HTTP round trip, take most of its time; and neighbouring sizes differ
// by one stage, so the median does not jump between two size classes
// from run to run.
var compileStageCounts = func() []int {
	var n []int
	for s := 16; s < 56; s++ {
		n = append(n, s)
	}
	return n
}()

// compileOp is one serve-compile request: a CARAT-C program or one of the
// paper's kernels printed as textual IR.
type compileOp struct {
	Kind   string // "cc" or "cir"
	Name   string // base name; each request adds a unique suffix
	Source string
	Prog   *ccProgram // set for "cc"
	Kernel string     // set for "cir"
}

// compileCorpus returns one serve-compile round in its seeded order: the
// 22 kernels at workload.ScaleTest as .cir text plus the generated
// programs of compileStageCounts sizes.
func compileCorpus(seed int64) []compileOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []compileOp
	for i, n := range compileStageCounts {
		p := ccProgram{Start: rng.Int63n(1 << 20)}
		for j := int64(0); j < int64(n); j++ {
			p.Stages = append(p.Stages, randStage(rng, 64+j%4*64, 16+j%3*16))
		}
		ops = append(ops, compileOp{Kind: "cc", Name: fmt.Sprintf("gen%d", i), Source: p.Source(), Prog: &p})
	}
	for _, w := range workload.All() {
		ops = append(ops, compileOp{Kind: "cir", Name: w.Name, Source: w.Build(workload.ScaleTest).String(), Kernel: w.Name})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
