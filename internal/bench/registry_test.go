package bench

import (
	"flag"
	"strings"
	"testing"
)

// The go test -bench face of the registry: one benchmark per family,
// whose sub-benchmarks are the registry entries under their BENCH keys
// (BenchmarkColdAssess/n=400, ...), at the sizes mdbench records by
// default.
//
//	go test ./internal/bench -run '^$' -bench 'BenchmarkScaling_(Chase|QA)' -benchmem

var benchSizes = []int{100, 400, 1600}

func BenchmarkScaling_Chase(b *testing.B)    { runFamily(b, Default(benchSizes)) }
func BenchmarkScaling_QA(b *testing.B)       { runFamily(b, Default(benchSizes)) }
func BenchmarkColdAssess(b *testing.B)       { runFamily(b, Default(benchSizes)) }
func BenchmarkWarmAssess(b *testing.B)       { runFamily(b, Default(benchSizes)) }
func BenchmarkFacadeColdAssess(b *testing.B) { runFamily(b, Default(benchSizes)) }
func BenchmarkFacadeWarmApply(b *testing.B)  { runFamily(b, Default(benchSizes)) }
func BenchmarkAdhocQuery(b *testing.B)       { runFamily(b, Default(benchSizes)) }
func BenchmarkSourceRefresh(b *testing.B)    { runFamily(b, Default(benchSizes)) }
func BenchmarkAsOfAnswers(b *testing.B)      { runFamily(b, Default(benchSizes)) }
func BenchmarkDurableWarmApply(b *testing.B) { runFamily(b, Durable(benchSizes, b.TempDir())) }

// runFamily runs the entries named under b's own name as
// sub-benchmarks.
func runFamily(b *testing.B, entries []Entry) {
	for _, e := range entries {
		sub, ok := strings.CutPrefix(e.Name, b.Name()+"/")
		if !ok {
			continue
		}
		b.Run(sub, func(b *testing.B) {
			body, err := e.Setup()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := body(b); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestRegistryEntries runs every registry entry for one op at n=100
// through Entry.Measure, the path mdbench takes, so each body's own
// output check runs under plain go test. Keys must be unique within
// each registry.
func TestRegistryEntries(t *testing.T) {
	// One op per entry: the output checks are under test, not the
	// timing.
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	if err := bt.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Set(old)

	sizes := []int{100}
	ran := map[string]bool{}
	for _, reg := range [][]Entry{Default(sizes), Sweep(sizes, []int{1, 2}), Durable(sizes, t.TempDir())} {
		seen := map[string]bool{}
		for _, e := range reg {
			if seen[e.Name] {
				t.Errorf("duplicate key %s", e.Name)
			}
			seen[e.Name] = true
			if ran[e.Name] {
				continue
			}
			ran[e.Name] = true
			if _, err := e.Measure(); err != nil {
				t.Error(err)
			}
		}
	}
	if len(ran) != 20 {
		t.Errorf("ran %d distinct entries, want 20", len(ran))
	}
}
