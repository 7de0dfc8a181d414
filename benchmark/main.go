// Command benchmark is the repository's end-to-end benchmark: it runs
// one named workload through one mdrouter in front of two mdserve
// shards on loopback, checks every answer it gets, and prints each
// metric with its unit and sample count. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage (run.sh builds the programs first):
//
//	benchmark -root <checkout> --workload serve-read --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics over HTTP with nothing
// traced. --trace 1 replays the same seeded op stream in-process,
// calling each layer's exported functions with spans around the
// calls, and reports the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", ".", "checkout root: holds .bench_build/bin and receives the run directory")
	name := flag.String("workload", "", "workload name: serve-read, serve-ingest or cold-assess")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and op stream")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = traced in-process replay, per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	build := filepath.Join(*root, ".bench_build")
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	printMeta(*root, w, *seed, *seconds, *trace)
	in, err := newInputs(w, *seed, time.Duration(*seconds)*time.Second, dir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var res *result
	if *trace == 0 {
		res, err = runEndToEnd(ctx, w, in, filepath.Join(build, "bin"), dir)
	} else {
		res, err = runTraced(ctx, w, in, filepath.Join(build, "bin"), dir)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printMeta records what the numbers were measured on.
func printMeta(root string, w workload, seed int64, seconds, trace int) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", w.Name, seed, seconds, trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("# topology: 1 mdrouter -> %d mdserve shards on loopback, engine parallelism %d\n", numShards, runtime.NumCPU())
	if w.OpenLoop {
		fmt.Printf("# open loop: %.0f ops/s over %d connections; %d sessions (zipf 1.0) of n=%d measurements, %d set-up ticks each\n",
			w.Rate, w.Conns, w.Sessions, w.N, w.SeedTicks)
		fmt.Printf("# mix: %.0f%% apply batches of one gen tick; reads: %.0f%% as-of, rest relation scans\n",
			100*w.WriteFrac, 100*w.AsOfFrac)
	} else {
		fmt.Printf("# closed loop: 1 caller, POST assess with the n=%d instance in the body\n", w.N)
	}
	fmt.Printf("# %s of warm-up load, untimed, then %ds measured; cpu_ms_per_op is the router's and shards' CPU time over the measured seconds per op completed in them\n",
		warmup, seconds)
	if w.Durable {
		fmt.Printf("# durable shards: -data-dir, -fsync %s, -max-resident-sessions %d per shard, default history depth\n", w.Fsync, w.MaxResident)
	}
}

// median returns the middle of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
