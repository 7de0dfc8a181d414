package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPerfJSONRoundTrip pins the annotated snapshot format: results
// round-trip, and the "_hardware" key carries the recording machine
// without polluting the result map.
func TestPerfJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	in := map[string]PerfResult{
		"BenchmarkColdAssess/n=400/p=1": {NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 2048},
		"BenchmarkWarmAssess/n=400/p=1": {NsPerOp: 50, AllocsPerOp: 2, BytesPerOp: 128},
	}
	if err := WritePerfJSON(path, in); err != nil {
		t.Fatal(err)
	}
	out, hw, err := ReadPerfJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if hw == nil || hw.NumCPU < 1 || hw.Gomaxprocs < 1 {
		t.Fatalf("snapshot must carry the hardware annotation, got %+v", hw)
	}
	if len(out) != len(in) {
		t.Fatalf("results polluted by the annotation: %v", out)
	}
	for name, want := range in {
		if out[name] != want {
			t.Fatalf("%s: got %+v want %+v", name, out[name], want)
		}
	}
}

// TestReadPerfJSONLegacy reads a pre-annotation snapshot (no
// "_hardware"): BENCH_1–4 must stay loadable as baselines.
func TestReadPerfJSONLegacy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_legacy.json")
	legacy := `{"BenchmarkColdAssess/n=400/p=1": {"ns_per_op": 42, "allocs_per_op": 1, "bytes_per_op": 64}}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	out, hw, err := ReadPerfJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if hw != nil {
		t.Fatalf("legacy snapshot has no hardware, got %+v", hw)
	}
	if out["BenchmarkColdAssess/n=400/p=1"].NsPerOp != 42 {
		t.Fatalf("legacy results misread: %+v", out)
	}
}

// TestComparePerf pins the regression gate: within tolerance passes,
// beyond fails, families filter, and a vacuous comparison is
// detectable via the compared count.
func TestComparePerf(t *testing.T) {
	baseline := map[string]PerfResult{
		"BenchmarkColdAssess/n=400/p=1":   {NsPerOp: 1000},
		"BenchmarkWarmAssess/n=400/p=1":   {NsPerOp: 100},
		"BenchmarkScaling_Chase/n=400":    {NsPerOp: 10},
		"BenchmarkColdAssess/n=1600/p=1":  {NsPerOp: 5000},
		"BenchmarkIgnoredFamily/n=400":    {NsPerOp: 1},
		"BenchmarkColdAssess/n=800/extra": {NsPerOp: 0}, // zero baseline: skipped
	}
	families := []string{"BenchmarkColdAssess", "BenchmarkWarmAssess"}

	// Within tolerance: +25% on a 30% gate.
	current := map[string]PerfResult{
		"BenchmarkColdAssess/n=400/p=1": {NsPerOp: 1250},
		"BenchmarkWarmAssess/n=400/p=1": {NsPerOp: 90},
		"BenchmarkScaling_Chase/n=400":  {NsPerOp: 1000}, // 100x but not guarded
	}
	regs, compared := ComparePerf(current, baseline, families, 0.30)
	if len(regs) != 0 {
		t.Fatalf("within tolerance must pass: %v", regs)
	}
	if compared != 2 {
		t.Fatalf("want 2 compared, got %d", compared)
	}

	// Beyond tolerance fails, worst first.
	current["BenchmarkColdAssess/n=400/p=1"] = PerfResult{NsPerOp: 1400}
	current["BenchmarkWarmAssess/n=400/p=1"] = PerfResult{NsPerOp: 200}
	regs, _ = ComparePerf(current, baseline, families, 0.30)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	if regs[0].Name != "BenchmarkWarmAssess/n=400/p=1" {
		t.Fatalf("worst regression (2.0x) must sort first: %v", regs)
	}
	if regs[0].Ratio < 1.9 || regs[0].Ratio > 2.1 {
		t.Fatalf("ratio: %v", regs[0])
	}

	// Keys only in current (new benchmarks) are not regressions.
	regs, compared = ComparePerf(map[string]PerfResult{
		"BenchmarkColdAssess/n=9999/p=1": {NsPerOp: 1},
	}, baseline, families, 0.30)
	if len(regs) != 0 || compared != 0 {
		t.Fatalf("unmatched keys must not count: regs=%v compared=%d", regs, compared)
	}
}

// TestComparePerfBestOf pins the best-of rule behind a multi-file
// -baseline: each key is held to its lowest ns/op across the
// snapshots, so a slow number recorded later (or earlier) cannot
// loosen the gate.
func TestComparePerfBestOf(t *testing.T) {
	older := map[string]PerfResult{
		"BenchmarkWarmAssess/n=400/p=1": {NsPerOp: 100},
		"BenchmarkColdAssess/n=400/p=1": {NsPerOp: 1000},
		"BenchmarkAsOfAnswers/n=400":    {NsPerOp: 0}, // no value on record here
	}
	newer := map[string]PerfResult{
		"BenchmarkWarmAssess/n=400/p=1": {NsPerOp: 1500}, // a regression that entered the record
		"BenchmarkColdAssess/n=400/p=1": {NsPerOp: 600},  // a win
		"BenchmarkAsOfAnswers/n=400":    {NsPerOp: 50},
	}
	best := BestPerf(older, newer)
	for name, want := range map[string]int64{
		"BenchmarkWarmAssess/n=400/p=1": 100,
		"BenchmarkColdAssess/n=400/p=1": 600,
		"BenchmarkAsOfAnswers/n=400":    50,
	} {
		if got := best[name].NsPerOp; got != want {
			t.Errorf("best %s = %d ns/op, want %d", name, got, want)
		}
	}
	// 900 ns/op on ColdAssess passes against the older file alone but
	// regresses against the better newer one; 1200 on WarmAssess passes
	// against the newer file alone but not against the older one.
	current := map[string]PerfResult{
		"BenchmarkWarmAssess/n=400/p=1": {NsPerOp: 1200},
		"BenchmarkColdAssess/n=400/p=1": {NsPerOp: 900},
		"BenchmarkAsOfAnswers/n=400":    {NsPerOp: 55},
	}
	families := []string{"BenchmarkWarmAssess", "BenchmarkColdAssess", "BenchmarkAsOfAnswers"}
	regs, compared := ComparePerf(current, best, families, 0.30)
	if compared != 3 {
		t.Fatalf("compared %d keys, want 3", compared)
	}
	if len(regs) != 2 || regs[0].Name != "BenchmarkWarmAssess/n=400/p=1" || regs[1].Name != "BenchmarkColdAssess/n=400/p=1" {
		t.Fatalf("want WarmAssess then ColdAssess regressed against the best on record, got %v", regs)
	}
	if regs[1].BaselineNs != 600 {
		t.Fatalf("ColdAssess judged against %d ns/op, want the best 600", regs[1].BaselineNs)
	}
}
