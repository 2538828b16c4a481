// Command benchmark is the client's-eye load generator for fastmatchd: it
// builds cmd/datagen and cmd/fastmatchd from the checkout it runs in,
// generates seeded datasets, boots real daemon processes on loopback
// TCP, drives them with named workloads, checks the answers against an
// in-process engine, and prints every metric by name with its unit.
//
// Run it from the checkout root through the wrapper, which keeps the go
// build cache inside the checkout:
//
//	bash benchmark/run.sh                          # all workloads, gated metrics
//	bash benchmark/run.sh -trace 1                 # ... plus the per-layer runs
//	bash benchmark/run.sh -quick                   # smoke: rows/20, 2 s windows
//	bash benchmark/run.sh -selfcheck               # A/A: the set twice, compared
//	bash benchmark/run.sh --workload scan-20m --seed 7 --seconds 10 --trace 0
//
// With --workload the last line of standard output is one JSON object in
// the BENCHMARK.json contract's shape. See README.md for the workloads,
// the metric table and the measured baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeconds = 15 // BENCHMARK.json's run_seconds
	warmupSeconds  = 2
	setupBoots     = 3
	quickScale     = 20
)

func main() {
	workloadFlag := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of every request stream and append schedule")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics (traced run) instead of the gated ones; with -workload all, after them")
	quick := flag.Bool("quick", false, "smoke mode: rows/20 and 2 s windows; results are not comparable")
	selfcheck := flag.Bool("selfcheck", false, "A/A: run the gated set twice on this build and seed, fail if any metric disagrees by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-quick] [-selfcheck]")
		os.Exit(2)
	}
	// The generator never takes more processors than the box has; the
	// daemons run on their defaults.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))

	root, err := os.Getwd()
	var h *harness
	if err == nil {
		h, err = newHarness(root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		h.close()
		os.Exit(130)
	}()

	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, warmup: warmupSeconds * time.Second, boots: setupBoots, scale: 1}
	if *quick {
		cfg.window, cfg.warmup, cfg.scale = 2*time.Second, time.Second, quickScale
	}
	code, err := run(h, cfg, *workloadFlag, *trace == 1, *selfcheck)
	h.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run executes the requested mode and returns the exit code.
func run(h *harness, cfg runConfig, name string, traced, selfcheck bool) (int, error) {
	if err := h.build(); err != nil {
		return 1, err
	}
	env := environment(h)
	// Only full-size runs may be compared with a baseline.
	env["comparable"] = cfg.scale == 1
	fmt.Printf("environment: %s\n", mustJSON(env))
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return 2, err
		}
		cfg.traced = traced
		if traced {
			cfg.boots = 1
		}
		res, err := h.runWorkload(w, cfg)
		if err != nil {
			return 1, err
		}
		printRun(res)
		// The contract's result line: exactly these four keys.
		line, err := json.Marshal(map[string]any{
			"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": contractMetrics(res),
		})
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
		return 0, nil
	}

	first, err := runSet(h, cfg, false)
	if err != nil {
		return 1, err
	}
	report := map[string]any{"env": env, "runs": summarize(first)}
	code := exitCode(first)
	switch {
	case selfcheck:
		second, err := runSet(h, cfg, false)
		if err != nil {
			return 1, err
		}
		diffs := compareSets(first, second)
		report["selfcheck"], code = diffs, max(code, exitCode(second))
		for _, d := range diffs {
			if d.Exceeds {
				code = 1
			}
		}
	case traced:
		layers, err := runSet(h, cfg, true)
		if err != nil {
			return 1, err
		}
		report["layer_runs"], code = summarize(layers), max(code, exitCode(layers))
	}
	fmt.Println(mustJSON(report))
	return code, nil
}

// runSet runs every workload once and prints each run as it finishes,
// then the numbers that need two workloads.
func runSet(h *harness, cfg runConfig, traced bool) ([]*runResult, error) {
	cfg.traced = traced
	if traced {
		cfg.boots = 1
	}
	var out []*runResult
	byName := map[string]*runResult{}
	for i := range workloads {
		res, err := h.runWorkload(&workloads[i], cfg)
		if err != nil {
			return nil, err
		}
		printRun(res)
		out = append(out, res)
		byName[res.workload] = res
	}
	if !traced {
		scan, sample, clus := byName["scan-20m"].metrics, byName["sample-20m"].metrics, byName["cluster3-20m"].metrics
		fmt.Printf("== derived (informational)\n")
		fmt.Printf("  %-38s %12.4f ratio   qps(sample-20m) / qps(scan-20m)\n", "sampling_speedup_over_scan", ratio(sample["qps"], scan["qps"]))
		fmt.Printf("  %-38s %12.4f ms      query_p50_ms(cluster3-20m) - query_p50_ms(sample-20m)\n", "cluster_overhead_ms", clus["query_p50_ms"]-sample["query_p50_ms"])
	}
	return out, nil
}

// contractMetrics shapes a run's metrics as the contract wants them:
// name -> {value, unit}.
func contractMetrics(res *runResult) map[string]any {
	defs := endToEnd
	if res.traced {
		defs = perLayer
	}
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		out[d.name] = map[string]any{"value": res.metrics[d.name], "unit": d.unit}
	}
	return out
}

// printRun prints one run's metrics by name with their units.
func printRun(res *runResult) {
	mode, defs := "gated end-to-end metrics", endToEnd
	if res.traced {
		mode, defs = "per-layer metrics (traced run, not gated)", perLayer
	}
	fmt.Printf("== %s: %s\n", res.workload, mode)
	for _, d := range defs {
		note := d.layer
		if d.bound > 0 {
			note = fmt.Sprintf("%s is better, may worsen by %.0f%%", d.better, d.bound*100)
		}
		fmt.Printf("  %-38s %12.4f %-7s %s\n", d.name, res.metrics[d.name], d.unit, note)
	}
	names := make([]string, 0, len(res.info))
	for k := range res.info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-38s %12.4f         (informational)\n", k, res.info[k])
	}
	fmt.Printf("  attempted %d, failed %d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func summarize(runs []*runResult) []map[string]any {
	out := make([]map[string]any, len(runs))
	for i, r := range runs {
		out[i] = map[string]any{
			"workload": r.workload, "correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed,
			"metrics": contractMetrics(r), "info": r.info,
		}
	}
	return out
}

func exitCode(runs []*runResult) int {
	for _, r := range runs {
		if r.failed > 0 {
			return 1
		}
	}
	return 0
}

// aaDiff is one workload × gated metric of an A/A comparison.
type aaDiff struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// RelDiff is |second − first| / first.
	RelDiff float64 `json:"rel_diff"`
	Bound   float64 `json:"bound"`
	Exceeds bool    `json:"exceeds"`
}

// compareSets prints, per workload × gated metric, how far two runs of
// the same build and seed disagree, beside the metric's bound.
func compareSets(a, b []*runResult) []aaDiff {
	var out []aaDiff
	fmt.Printf("== selfcheck (A/A): same build, same seed, run twice\n")
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].metrics[d.name], b[i].metrics[d.name]
			diff := aaDiff{Workload: a[i].workload, Metric: d.name, First: x, Second: y, RelDiff: ratio(math.Abs(y-x), x), Bound: d.bound}
			diff.Exceeds = diff.RelDiff > d.bound
			verdict := "ok"
			if diff.Exceeds {
				verdict = "EXCEEDS BOUND"
			}
			fmt.Printf("  %-14s %-14s %12.4f %12.4f  diff %5.1f%%  bound %3.0f%%  %s\n", diff.Workload, d.name, x, y, diff.RelDiff*100, d.bound*100, verdict)
			out = append(out, diff)
		}
	}
	return out
}

// environment records what the numbers were taken on.
func environment(h *harness) map[string]any {
	env := map[string]any{
		"nproc":              runtime.NumCPU(),
		"loadgen_gomaxprocs": runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs":  "default (nproc)",
		"go_version":         runtime.Version(),
		"commit":             commit(h.root),
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		env["daemon_gomaxprocs"] = v // daemons inherit the environment
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env["loadavg_at_start"] = strings.TrimSpace(string(b))
	}
	sizes := map[string]int64{}
	if files, err := filepath.Glob(filepath.Join(h.cacheDir, "data", "*.fms")); err == nil {
		for _, f := range files {
			if st, err := os.Stat(f); err == nil {
				sizes[filepath.Base(f)] = st.Size()
			}
		}
	}
	env["dataset_bytes_cached"] = sizes
	return env
}

// commit reads the checkout's HEAD without running git; a checkout that
// is not a repository reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return name
	}
	return ref
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
