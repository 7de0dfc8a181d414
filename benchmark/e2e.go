package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gen"
	"repro/internal/load"
)

// A run boots and seeds the topology at least minRepeats times and
// until repeatFor has passed, and reports the median set-up time; the
// last boot carries the load. On durable shards it times
// crash-restarts the same way for recovery_s. Cheap set-ups thus get
// many samples, which keeps their medians from following one slow
// boot.
const (
	minRepeats = 5
	repeatFor  = 2 * time.Second
)

// minTailSamples is the sample count a p99 needs: with fewer, fewer
// than ten samples lie beyond it and only the p50 is reported.
const minTailSamples = 1000

// inputs are everything generated from the seed.
type inputs struct {
	stream      *gen.StreamingWorkload
	source      string // the .mdq context
	contextFile string
	duration    time.Duration
	ops         []op // open-loop arrivals
	assessBody  []byte
	expectClean int
}

func newInputs(w workload, seed int64, d time.Duration, dir string) (*inputs, error) {
	stream, err := gen.NewStreamingWorkload(w.streamSpec(seed))
	if err != nil {
		return nil, err
	}
	in := &inputs{
		stream:      stream,
		source:      contextSource(stream.Base),
		contextFile: filepath.Join(dir, "gen.mdq"),
		expectClean: stream.Base.ExpectedClean,
		duration:    d,
	}
	if err := os.WriteFile(in.contextFile, []byte(in.source), 0o644); err != nil {
		return nil, err
	}
	if w.OpenLoop {
		in.ops = opStream(w, seed, d)
	} else {
		in.assessBody, err = json.Marshal(map[string]any{"instance": gen.WireInstance(stream.Base.Instance)})
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (in *inputs) runner(w workload, baseURL string) *runner {
	return &runner{w: w, c: newClient(baseURL, w.Conns), stream: in.stream, assessBody: in.assessBody, expectClean: in.expectClean}
}

// bootSeeded boots a fresh topology under dir and seeds its sessions,
// returning it with the set-up time and the seeded captures.
func bootSeeded(ctx context.Context, w workload, in *inputs, bin, dir string) (*topology, *runner, []observation, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, 0, err
	}
	t, err := newTopology(w, bin, dir, in.contextFile)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	start := time.Now()
	if err := t.boot(ctx); err != nil {
		t.stop()
		return nil, nil, nil, 0, err
	}
	r := in.runner(w, t.router.addr)
	var obs []observation
	if w.OpenLoop {
		if obs, err = r.setup(ctx, t.shardURLs()); err != nil {
			t.stop()
			return nil, nil, nil, 0, err
		}
	}
	return t, r, obs, time.Since(start), nil
}

// runEndToEnd is the untraced run: set-up, the measured load, the
// output checks and, on durable shards, the crash-restarts, all over
// HTTP.
func runEndToEnd(ctx context.Context, w workload, in *inputs, bin, dir string) (*result, error) {
	var (
		t      *topology
		r      *runner
		obs    []observation
		setups []float64
	)
	for start := time.Now(); len(setups) < minRepeats || time.Since(start) < repeatFor; {
		var d time.Duration
		var err error
		if t != nil {
			t.stop()
		}
		t, r, obs, d, err = bootSeeded(ctx, w, in, bin, filepath.Join(dir, fmt.Sprintf("setup%d", len(setups))))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer t.stop()

	// The programs' CPU time is read when the measured seconds start
	// and once the last measured op has returned.
	var (
		lr     *loadResult
		cpu0   time.Duration
		cpuErr error
	)
	measure := func() { cpu0, cpuErr = t.cpuTime() }
	if w.OpenLoop {
		lr = r.openLoop(ctx, in.ops, measure)
	} else {
		lr = r.closedLoop(ctx, in.duration, measure)
	}
	cpu1, err := t.cpuTime()
	if cpuErr != nil || err != nil {
		return nil, errors.Join(cpuErr, err)
	}
	measured := int64(0)
	for c := range lr.lat {
		measured += lr.lat[c].Count()
	}

	checkErrs := lr.checkErrs
	var ref *reference
	if w.OpenLoop {
		var err error
		if ref, err = newReference(ctx, in.source); err != nil {
			return nil, err
		}
	}
	matchedLive := 0
	asOfChecked := 0
	if w.AsOfFrac > 0 {
		var errs []string
		all := append(obs, lr.obs...)
		matchedLive, errs = checkObservations(ctx, ref, r, all)
		checkErrs = append(checkErrs, errs...)
		for _, o := range all {
			if o.asOf {
				asOfChecked++
			}
		}
	}
	var restarts []float64
	restartAll := func() error {
		for _, s := range t.shards {
			d, err := t.restartShard(ctx, s)
			if err != nil {
				return err
			}
			restarts = append(restarts, d.Seconds())
		}
		return t.waitRouter(ctx)
	}
	var (
		heap int64
		want []assessed
	)
	if w.Durable {
		// Reads revive sessions and evict others to snapshots, which
		// would make the WAL tails the load left redundant. So the
		// sessions are checked without reviving any (their acknowledged
		// batch counts), then the shards crash straight away, and
		// every assessment must come back from disk equal to the
		// reference.
		checkErrs = append(checkErrs, checkApplies(ctx, r)...)
		if err := restartAll(); err != nil {
			return nil, err
		}
		if want, err = expectAssessments(ctx, ref, r); err != nil {
			return nil, err
		}
		checkErrs = append(checkErrs, checkAssessments(ctx, r, want, "after the first crash")...)
		// Which sessions are resident depends on timing (a shard evicts
		// after it has answered). Two passes over every session in
		// order leave each shard holding only sessions just revived
		// from disk, so the heap read below does not vary with that.
		for pass := 0; pass < 2; pass++ {
			if err := r.touchAll(ctx); err != nil {
				return nil, err
			}
		}
	}
	if heap, err = t.liveHeapBytes(); err != nil {
		return nil, err
	}
	if w.Durable {
		for start := time.Now(); len(restarts) < minRepeats || time.Since(start) < repeatFor; {
			if err := restartAll(); err != nil {
				return nil, err
			}
		}
		checkErrs = append(checkErrs, checkAssessments(ctx, r, want, "after the last crash")...)
	}

	failed := lr.failed + lr.dropped
	rep := &report{}
	for c := 0; c < numClasses; c++ {
		rep.latency(classNames[c], &lr.lat[c])
	}
	rep.add("error_rate", float64(failed)/float64(lr.attempted), "ratio", lr.attempted)
	rep.add("load.sched_lag_p99_ms", millis(lr.lag.Quantile(0.99)), "ms", lr.lag.Count())
	rep.add("heap_live_mb", float64(heap)/(1<<20), "MB", 1)
	if len(restarts) > 0 {
		rep.add("recovery_s", median(restarts), "s", int64(len(restarts)))
	}
	rep.add("setup_s", median(setups), "s", int64(len(setups)))
	rep.add("cpu_ms_per_op", millis(cpu1-cpu0)/float64(max(measured, 1)), "ms", measured)
	rep.print()
	fmt.Printf("# ops: attempted %d = completed %d + failed %d + dropped %d (failed counts errors, refusals and mid-stream error lines)\n",
		lr.attempted, lr.attempted-lr.failed-lr.dropped, lr.failed, lr.dropped)
	if w.AsOfFrac > 0 {
		fmt.Printf("# checked: %d as-of scans against the reference, %d of them also against a live scan at the same version\n", asOfChecked, matchedLive)
	}
	if w.Durable {
		fmt.Printf("# checked: %d sessions' acknowledged batch counts before the first crash, their assessments against the reference after it and after %d more shard restarts\n", len(r.sessions), len(restarts)-numShards)
	}
	if !w.OpenLoop {
		fmt.Printf("# checked: every assessment against %d clean of %d measurements\n", in.expectClean, w.N)
	}
	if lr.lastErr != nil {
		fmt.Printf("# last error: %v\n", lr.lastErr)
	}
	for _, e := range checkErrs {
		fmt.Printf("# CHECK FAILED: %s\n", e)
	}
	return &result{
		Correct:   len(checkErrs) == 0 && measured > 0,
		Attempted: lr.attempted,
		Failed:    failed,
		Metrics:   rep.metrics(gatedMetrics...),
	}, nil
}

// gatedMetrics are the end-to-end metrics of BENCHMARK.json, the
// ones every workload reports on its JSON line.
var gatedMetrics = []string{"cpu_ms_per_op", "heap_live_mb", "setup_s"}

// report collects metrics for the human-readable table and the JSON
// line.
type report struct {
	rows []reportRow
}

type reportRow struct {
	name    string
	value   float64
	unit    string
	samples int64
}

func (r *report) add(name string, v float64, unit string, samples int64) {
	r.rows = append(r.rows, reportRow{name, v, unit, samples})
}

// latency adds a class's p50, and its p99 once it has enough samples.
func (r *report) latency(class string, h *load.Histogram) {
	if h.Count() == 0 {
		return
	}
	r.add(class+"_p50_ms", millis(h.Quantile(0.5)), "ms", h.Count())
	if h.Count() >= minTailSamples {
		r.add(class+"_p99_ms", millis(h.Quantile(0.99)), "ms", h.Count())
	}
}

func (r *report) print() {
	for _, row := range r.rows {
		fmt.Printf("%-28s %14.4f %-6s n=%d\n", row.name, row.value, row.unit, row.samples)
	}
}

func (r *report) metrics(names ...string) map[string]metric {
	out := map[string]metric{}
	for _, n := range names {
		for _, row := range r.rows {
			if row.name == n {
				out[n] = metric{Value: row.value, Unit: row.unit}
			}
		}
	}
	return out
}
