// Command mdbench regenerates every table and figure of the paper and
// runs the complexity-claim experiments (see DESIGN.md's experiment
// index).
//
// Usage:
//
//	mdbench                          # run everything
//	mdbench -exp T2                  # one experiment
//	mdbench -scale 6400              # extend the C1 scaling sweep
//	mdbench -benchjson BENCH_1.json  # machine-readable perf snapshot
//	mdbench -benchjson BENCH_4.json -parallelism 1,2,4,8
//	                                 # parallel sweep: chase + cold/warm
//	                                 # assessment at each worker-pool level
//	mdbench -benchjson BENCH_ci.json -sizes 400 -parallelism 1 \
//	        -baseline BENCH_4.json -tolerance 0.30
//	                                 # CI smoke: record a small snapshot
//	                                 # and fail if the assessment path
//	                                 # regressed >30% vs the baseline
//
// Every -benchjson key is one entry of the internal/bench registry;
// `go test ./internal/bench -run '^$' -bench <family>` runs the same
// body under the same name. Every snapshot is annotated with the
// recording machine ("_hardware": CPU count, GOMAXPROCS, OS/arch), so a
// p=4 sweep from a single-core container is distinguishable from a
// real multi-core run.
// -baseline compares against any earlier snapshot (annotated or not)
// and exits non-zero when a benchmark in -families exceeds the
// baseline ns/op by more than -tolerance.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment ID to run (default: all); one of "+strings.Join(bench.IDs(), ","))
	scale := flag.String("scale", "", "comma-separated base sizes for an extended C1 scaling sweep")
	benchJSON := flag.String("benchjson", "", "write the scaling benchmarks (name -> ns/op, allocs/op) to this JSON file; used to track the perf trajectory across PRs")
	parallelism := flag.String("parallelism", "", "comma-separated worker-pool levels for a -benchjson parallel sweep (e.g. 1,2,4,8; 1 = sequential engine); a single value also works")
	sizes := flag.String("sizes", "", "comma-separated base sizes for -benchjson runs (default: 100,400,1600; sweep default: 400,1600)")
	baseline := flag.String("baseline", "", "earlier BENCH_<n>.json to compare the fresh -benchjson snapshot against; regressions beyond -tolerance fail the run")
	tolerance := flag.Float64("tolerance", 0.30, "allowed ns/op slowdown vs -baseline (0.30 = +30%)")
	families := flag.String("families", "BenchmarkColdAssess,BenchmarkWarmAssess", "comma-separated benchmark-name prefixes the -baseline comparison guards")
	durable := flag.Bool("durable", false, "with -benchjson: also measure the durable warm-apply path (session apply + WAL append) at every fsync mode")
	flag.Parse()

	if *benchJSON != "" {
		results, err := runBenchJSON(*benchJSON, *sizes, *parallelism, *durable)
		if err == nil && *baseline != "" {
			err = compareBaseline(results, *baseline, *families, *tolerance)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mdbench:", err)
			os.Exit(1)
		}
		return
	}
	// Flags that only mean something on a -benchjson run must not be
	// silently ignored on experiment runs.
	benchOnly := map[string]bool{"parallelism": true, "sizes": true, "baseline": true, "tolerance": true, "families": true, "durable": true}
	flag.Visit(func(f *flag.Flag) {
		if benchOnly[f.Name] {
			fmt.Fprintf(os.Stderr, "mdbench: -%s requires -benchjson\n", f.Name)
			os.Exit(1)
		}
	})

	if *scale != "" {
		if err := runScale(*scale); err != nil {
			fmt.Fprintln(os.Stderr, "mdbench:", err)
			os.Exit(1)
		}
		return
	}

	experiments := bench.All()
	if *exp != "" {
		e, ok := bench.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "mdbench: unknown experiment %q (have %s)\n", *exp, strings.Join(bench.IDs(), ", "))
			os.Exit(1)
		}
		experiments = []bench.Experiment{e}
	}
	failed := 0
	for _, e := range experiments {
		fmt.Printf("==== %s — %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(os.Stdout); err != nil {
			fmt.Printf("FAILED: %v\n", err)
			failed++
		}
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mdbench: %d experiments failed\n", failed)
		os.Exit(1)
	}
}

// resolveSizes parses -sizes, falling back to the given default.
func resolveSizes(spec string, def []int) ([]int, error) {
	if spec == "" {
		return def, nil
	}
	sizes, err := parseInts(spec)
	if err != nil {
		return nil, fmt.Errorf("bad -sizes: %w", err)
	}
	return sizes, nil
}

// runBenchJSON measures the registry a -benchjson run selects (the
// default families, or the parallel sweep over -parallelism levels,
// plus the durable family with -durable), prints the results and
// writes them as a hardware-annotated snapshot.
func runBenchJSON(path, sizeSpec, levelSpec string, durable bool) (map[string]bench.PerfResult, error) {
	def := []int{100, 400, 1600}
	if levelSpec != "" {
		def = []int{400, 1600}
	}
	sizes, err := resolveSizes(sizeSpec, def)
	if err != nil {
		return nil, err
	}
	var entries []bench.Entry
	if levelSpec == "" {
		entries = bench.Default(sizes)
	} else {
		levels, err := parseInts(levelSpec)
		if err != nil {
			return nil, fmt.Errorf("bad -parallelism: %w", err)
		}
		entries = bench.Sweep(sizes, levels)
	}
	if durable {
		dir, err := os.MkdirTemp("", "mdbench-durable-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		entries = append(entries, bench.Durable(sizes, dir)...)
	}
	results := map[string]bench.PerfResult{}
	for _, e := range entries {
		if results[e.Name], err = e.Measure(); err != nil {
			return nil, err
		}
	}
	for _, name := range bench.PerfNames(results) {
		r := results[name]
		fmt.Printf("%-45s  %12d ns/op  %9d allocs/op  %10d B/op\n",
			name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	if err := bench.WritePerfJSON(path, results); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s (%s)\n", path, describeHardware(bench.CurrentHardware()))
	return results, nil
}

// describeHardware renders the machine annotation for run logs.
func describeHardware(hw bench.Hardware) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s/%s", hw.NumCPU, hw.Gomaxprocs, hw.GoOS, hw.GoArch)
}

// compareBaseline guards the banked perf wins: the fresh results must
// stay within tolerance of the baseline snapshot for the guarded
// benchmark families. Cross-machine comparisons are flagged — a CI
// runner differs from the machine that recorded the baseline, which is
// exactly why the tolerance is generous.
func compareBaseline(results map[string]bench.PerfResult, baselinePath, familySpec string, tolerance float64) error {
	baseline, hw, err := bench.ReadPerfJSON(baselinePath)
	if err != nil {
		return err
	}
	cur := bench.CurrentHardware()
	switch {
	case hw == nil:
		fmt.Printf("baseline %s has no hardware annotation (pre-PR 5 snapshot); current machine: %s\n",
			baselinePath, describeHardware(cur))
	case hw.NumCPU != cur.NumCPU:
		fmt.Printf("baseline %s recorded on %s, comparing on %s: parallel numbers are not directly comparable\n",
			baselinePath, describeHardware(*hw), describeHardware(cur))
	}
	var families []string
	for _, f := range strings.Split(familySpec, ",") {
		if f = strings.TrimSpace(f); f != "" {
			families = append(families, f)
		}
	}
	regressions, compared := bench.ComparePerf(results, baseline, families, tolerance)
	if compared == 0 {
		return fmt.Errorf("baseline comparison matched no benchmarks (families %s vs %s) — check -sizes/-parallelism against the baseline keys", familySpec, baselinePath)
	}
	fmt.Printf("baseline check: %d benchmarks compared against %s, tolerance +%.0f%%\n", compared, baselinePath, tolerance*100)
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond +%.0f%% vs %s", len(regressions), tolerance*100, baselinePath)
	}
	return nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func runScale(spec string) error {
	sizes, err := parseInts(spec)
	if err != nil {
		return fmt.Errorf("bad -scale: %w", err)
	}
	rows, err := bench.RunScaling(sizes)
	if err != nil {
		return err
	}
	fmt.Printf("%8s  %12s  %12s  %12s  %10s\n", "n", "chase", "DetQA", "rewrite", "atoms")
	for _, r := range rows {
		fmt.Printf("%8d  %12v  %12v  %12v  %10d\n",
			r.N, r.Chase.Round(time.Microsecond), r.DetQA.Round(time.Microsecond),
			r.Rewrite.Round(time.Microsecond), r.Atoms)
	}
	return nil
}
