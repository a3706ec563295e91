package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"carat/internal/passes"
	"carat/internal/vm"
	"carat/internal/workload"
)

// refs.json holds each kernel's return value from the uninstrumented
// module (passes.LevelNone) on the baseline interpreter (no predecode, no
// translation cache, no closure tier), at the two scales the benchmark
// runs. It is the independent reference for every kernel result; the
// baseline interpreter takes about 40 s for the ScaleSmall suite, so it is
// computed once by -regen-refs instead of on every run.
//
//go:embed refs.json
var refsJSON []byte

// kernelRefs maps scale name ("test", "small") to kernel name to the
// expected return value.
type kernelRefs map[string]map[string]int64

func loadRefs() (kernelRefs, error) {
	var r kernelRefs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	for _, sc := range []workload.Scale{workload.ScaleTest, workload.ScaleSmall} {
		for _, w := range workload.All() {
			if _, ok := r[sc.String()][w.Name]; !ok {
				return nil, fmt.Errorf("refs.json: no %s value for %s (run -regen-refs)", sc, w.Name)
			}
		}
	}
	return r, nil
}

// regenRefs recomputes refs.json into path.
func regenRefs(path string) error {
	r := kernelRefs{}
	for _, sc := range []workload.Scale{workload.ScaleTest, workload.ScaleSmall} {
		r[sc.String()] = map[string]int64{}
		for _, w := range workload.All() {
			ret, err := baselineReturn(w, sc)
			if err != nil {
				return err
			}
			r[sc.String()][w.Name] = ret
			fmt.Fprintf(os.Stderr, "%s %s = %d\n", sc, w.Name, ret)
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// baselineReturn runs w uninstrumented on the baseline interpreter.
func baselineReturn(w *workload.Workload, sc workload.Scale) (int64, error) {
	m := w.Build(sc)
	pl := passes.Build(passes.LevelNone)
	pl.Workers = 1
	if err := pl.Run(m); err != nil {
		return 0, fmt.Errorf("%s: %w", w.Name, err)
	}
	cfg := vm.DefaultConfig()
	cfg.Predecode, cfg.XCache = false, false
	v, err := vm.Load(m, cfg)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", w.Name, err)
	}
	defer v.Release() //nolint:errcheck // private machine, dropped after
	ret, err := v.Run()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", w.Name, err)
	}
	return ret, nil
}
