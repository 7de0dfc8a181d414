package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// PerfResult is one benchmark measurement in machine-readable form.
type PerfResult struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// Hardware identifies the machine a BENCH_<n>.json snapshot was
// recorded on. The parallel-sweep numbers are only comparable across
// snapshots from machines with the same CPU budget: a p=4 run on a
// single hardware core measures coordination overhead, not speedup
// (see PERF.md "Parallel execution"), so every snapshot carries its
// recording machine's shape under the "_hardware" key.
type Hardware struct {
	// NumCPU is runtime.NumCPU() at record time — the hardware (or
	// container-visible) CPU count, the nproc the PR 4 bench note asked
	// to capture.
	NumCPU int `json:"num_cpu"`
	// Gomaxprocs is runtime.GOMAXPROCS(0) at record time.
	Gomaxprocs int    `json:"gomaxprocs"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
}

// CurrentHardware probes the running machine.
func CurrentHardware() Hardware {
	return Hardware{
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
	}
}

// hardwareKey is the reserved results key carrying the Hardware
// annotation. It cannot collide with benchmark names (they all start
// with "Benchmark").
const hardwareKey = "_hardware"

// WritePerfJSON writes the results to path as pretty-printed JSON with
// deterministic key order (encoding/json sorts map keys), annotated
// with the recording machine under "_hardware". Snapshots from before
// the annotation (BENCH_1–4) lack the key; ReadPerfJSON tolerates
// both forms.
func WritePerfJSON(path string, results map[string]PerfResult) error {
	doc := make(map[string]any, len(results)+1)
	for name, r := range results {
		doc[name] = r
	}
	doc[hardwareKey] = CurrentHardware()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// ReadPerfJSON reads a BENCH_<n>.json snapshot. The returned Hardware
// is nil for snapshots recorded before the annotation existed.
func ReadPerfJSON(path string) (map[string]PerfResult, *Hardware, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	var hw *Hardware
	if msg, ok := raw[hardwareKey]; ok {
		hw = &Hardware{}
		if err := json.Unmarshal(msg, hw); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", path, hardwareKey, err)
		}
		delete(raw, hardwareKey)
	}
	results := make(map[string]PerfResult, len(raw))
	for name, msg := range raw {
		var r PerfResult
		if err := json.Unmarshal(msg, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", path, name, err)
		}
		results[name] = r
	}
	return results, hw, nil
}

// Regression is one benchmark that got slower than the baseline
// allows.
type Regression struct {
	Name       string
	BaselineNs int64
	CurrentNs  int64
	Ratio      float64 // CurrentNs / BaselineNs
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %d ns/op vs baseline %d ns/op (%.2fx)", r.Name, r.CurrentNs, r.BaselineNs, r.Ratio)
}

// BestPerf merges baseline snapshots into one baseline holding, for
// every key, the result with the lowest positive ns/op across them —
// the best value on record, so a slowdown that entered one snapshot
// cannot become the bar later runs are held to.
func BestPerf(snapshots ...map[string]PerfResult) map[string]PerfResult {
	best := map[string]PerfResult{}
	for _, snap := range snapshots {
		for name, r := range snap {
			if r.NsPerOp <= 0 {
				continue
			}
			if b, ok := best[name]; !ok || r.NsPerOp < b.NsPerOp {
				best[name] = r
			}
		}
	}
	return best
}

// ComparePerf checks current results against a baseline snapshot: for
// every key present in both whose name starts with one of the family
// prefixes, the current ns/op may exceed the baseline by at most
// tolerance (0.30 = +30%). It returns the regressions, worst first,
// plus how many keys were actually compared — a guard against a
// filter that matches nothing and "passes" vacuously.
func ComparePerf(current, baseline map[string]PerfResult, families []string, tolerance float64) (regressions []Regression, compared int) {
	inFamily := func(name string) bool {
		for _, f := range families {
			if strings.HasPrefix(name, f) {
				return true
			}
		}
		return false
	}
	for name, cur := range current {
		base, ok := baseline[name]
		if !ok || !inFamily(name) || base.NsPerOp <= 0 {
			continue
		}
		compared++
		ratio := float64(cur.NsPerOp) / float64(base.NsPerOp)
		if ratio > 1+tolerance {
			regressions = append(regressions, Regression{
				Name:       name,
				BaselineNs: base.NsPerOp,
				CurrentNs:  cur.NsPerOp,
				Ratio:      ratio,
			})
		}
	}
	sort.Slice(regressions, func(i, j int) bool { return regressions[i].Ratio > regressions[j].Ratio })
	return regressions, compared
}

// PerfNames returns the result names in sorted order, for stable
// human-readable summaries.
func PerfNames(results map[string]PerfResult) []string {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
