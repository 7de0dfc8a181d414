package bench

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"os"
	"testing"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/persist"
	"repro/internal/qa"
	"repro/internal/quality"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/mdqa"
)

// The benchmark registry: every key a BENCH_<n>.json snapshot records
// is one Entry, and every timed loop below is written once with its
// inputs as parameters. cmd/mdbench measures entries through
// testing.Benchmark (Entry.Measure); the package's go test -bench
// functions run the same bodies under the same names, so a BENCH key
// means exactly one thing.

// Entry is one named benchmark. Name is its BENCH key and its go test
// -bench name; Setup builds the fixture off the clock and returns the
// timed body.
type Entry struct {
	Name  string
	Setup func() (Body, error)
}

// Body is a timed benchmark loop. It returns the first failure of its
// own output check instead of calling b.Fatal, which testing.Benchmark
// would swallow.
type Body func(b *testing.B) error

// Measure sets the entry up and runs its body through
// testing.Benchmark.
func (e Entry) Measure() (PerfResult, error) {
	body, err := e.Setup()
	if err != nil {
		return PerfResult{}, fmt.Errorf("%s: setup: %w", e.Name, err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		if err == nil { // after a failure, the remaining rounds return at once
			err = body(b)
		}
	})
	if err != nil {
		return PerfResult{}, fmt.Errorf("%s: %w", e.Name, err)
	}
	return PerfResult{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}, nil
}

// Default is what mdbench -benchjson records: the engine families at
// the context-default parallelism, then the facade families, at every
// size.
func Default(sizes []int) []Entry {
	var es []Entry
	for _, n := range sizes {
		es = append(es, chaseEntry(n, 0), qaEntry(n), coldEntry(n, 0), warmEntry(n, 0))
	}
	for _, n := range sizes {
		es = append(es, facadeColdEntry(n), facadeWarmEntry(n),
			adhocEntry(n, false), adhocEntry(n, true), refreshEntry(n),
			asOfEntry(n, "live"), asOfEntry(n, "asof", mdqa.At(1)))
	}
	return es
}

// Sweep is what mdbench -parallelism records: the chase and the
// cold/warm assessment pair at every size and worker-pool level (1 =
// the exact sequential engine), then the read families at every size.
func Sweep(sizes, levels []int) []Entry {
	var es []Entry
	for _, n := range sizes {
		for _, p := range levels {
			es = append(es, chaseEntry(n, p), coldEntry(n, p), warmEntry(n, p))
		}
	}
	for _, n := range sizes {
		es = append(es, adhocEntry(n, false), adhocEntry(n, true),
			asOfEntry(n, "live"), asOfEntry(n, "asof", mdqa.At(1)))
	}
	return es
}

// Durable is what mdbench -durable adds: the warm apply with every
// batch write-ahead logged, at each fsync mode, with the session
// stores under dir. Next to the same size's BenchmarkWarmAssess the
// delta is each mode's durability tax.
func Durable(sizes []int, dir string) []Entry {
	var es []Entry
	for _, n := range sizes {
		for _, mode := range []wal.SyncMode{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
			es = append(es, durableEntry(n, mode, dir))
		}
	}
	return es
}

// key names a benchmark; p = 0 is the context default and carries no
// /p= suffix.
func key(family string, n, p int) string {
	k := fmt.Sprintf("%s/n=%d", family, n)
	if p > 0 {
		k += fmt.Sprintf("/p=%d", p)
	}
	return k
}

// bg is the context every benchmark runs under: nothing cancels a
// measurement.
var bg = context.Background()

// scalingWorkload builds the C1 chain workload behind the chase and QA
// scaling benchmarks and the C1 experiment.
func scalingWorkload(n int) (*datalog.Program, *storage.Instance, *datalog.Query, error) {
	spec := gen.ChainSpec{
		Dim:    gen.DimensionSpec{Name: "S", Levels: 3, Fanout: 8, BaseMembers: 64},
		Tuples: n,
		Upward: true,
		Seed:   42,
	}
	o, err := gen.ChainOntology(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	comp, err := o.Compile(core.CompileOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	q := datalog.NewQuery(datalog.A("Q", datalog.V("c")),
		datalog.A(gen.UpRelName(2), datalog.V("c"), datalog.C("v0")))
	return comp.Program, comp.Instance, q, nil
}

// warmResetTicks is how many delta ticks the warm benchmarks apply to
// one session before rebuilding it off the clock: enough to amortize,
// few enough that the instance stays near its nominal size while the
// harness scales iterations.
const warmResetTicks = 10

// streamWorkloadSpec is the streaming quality workload at n total
// measurements with a ~1% delta tick, behind every assessment, apply
// and read benchmark.
func streamWorkloadSpec(n int) gen.StreamSpec {
	tick := n / 400 // 1% of n measurements, at 4 days per patient
	if tick < 1 {
		tick = 1
	}
	return gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: n / 4, Days: 4, Wards: 3, DirtyRatio: 0.5, Seed: 11},
		TickPatients: tick,
	}
}

// engineFixture builds the streaming workload at n with an engine
// context at parallelism p, compiled ahead of the clock. A fresh
// context per level: parallelism is fixed at construction and the
// compilation cache is per context.
func engineFixture(n, p int) (*gen.StreamingWorkload, *quality.Context, *quality.Prepared, error) {
	wl, err := gen.NewStreamingWorkload(streamWorkloadSpec(n))
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := wl.Base.Config
	cfg.Parallelism = p
	qc, err := quality.NewContext(wl.Base.Ontology, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	prep, err := qc.Prepare(bg)
	return wl, qc, prep, err
}

// facadeFixture is engineFixture through the public mdqa constructor,
// exactly as an external consumer builds the context; extra options
// (e.g. WithSource) append after the workload's own.
func facadeFixture(n int, extra ...mdqa.Option) (*gen.StreamingWorkload, *mdqa.Context, *mdqa.Prepared, error) {
	wl, err := gen.NewStreamingWorkload(streamWorkloadSpec(n))
	if err != nil {
		return nil, nil, nil, err
	}
	var opts []mdqa.Option
	for _, r := range wl.Base.Config.Mappings {
		opts = append(opts, mdqa.WithMapping(r))
	}
	for _, r := range wl.Base.Config.QualityRules {
		opts = append(opts, mdqa.WithQualityRule(r))
	}
	for _, v := range wl.Base.Config.Versions {
		opts = append(opts, mdqa.WithQualityVersion(v.Original, v.Pred, v.Rules...))
	}
	qc, err := mdqa.NewContext(wl.Base.Ontology, append(opts, extra...)...)
	if err != nil {
		return nil, nil, nil, err
	}
	prep, err := qc.Prepare(bg)
	return wl, qc, prep, err
}

func chaseEntry(n, p int) Entry {
	return Entry{key("BenchmarkScaling_Chase", n, p), func() (Body, error) {
		prog, db, _, err := scalingWorkload(n)
		return func(b *testing.B) error {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := chase.Run(bg, prog, db, chase.Options{Parallelism: p})
				if err != nil {
					return fmt.Errorf("chase: %w", err)
				}
				if !res.Saturated {
					return errors.New("chase did not saturate")
				}
			}
			return nil
		}, err
	}}
}

// qaEntry measures chase-based certain-answer computation: chase to
// saturation plus query evaluation over the result.
func qaEntry(n int) Entry {
	return Entry{key("BenchmarkScaling_QA", n, 0), func() (Body, error) {
		prog, db, q, err := scalingWorkload(n)
		return func(b *testing.B) error {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := qa.CertainAnswersViaChase(bg, prog, db, q, qa.ChaseOptions{}); err != nil {
					return fmt.Errorf("certain answers: %w", err)
				}
			}
			return nil
		}, err
	}}
}

// coldAssess times one from-scratch assessment per op (merge, full
// chase, full eval, measures) and checks the clean version's size.
// Compilation is prepared ahead, so the number isolates the per-request
// work a session amortizes.
func coldAssess(b *testing.B, want int, assess func() (map[string]*storage.Relation, error)) error {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		versions, err := assess()
		if err != nil {
			return fmt.Errorf("assess: %w", err)
		}
		if got := versions["Measurements"].Len(); got != want {
			return fmt.Errorf("clean Measurements has %d rows, want %d", got, want)
		}
	}
	return nil
}

func coldEntry(n, p int) Entry {
	return Entry{key("BenchmarkColdAssess", n, p), func() (Body, error) {
		wl, qc, _, err := engineFixture(n, p)
		if err != nil {
			return nil, err
		}
		return func(b *testing.B) error {
			return coldAssess(b, wl.Base.ExpectedClean, func() (map[string]*storage.Relation, error) {
				a, err := qc.Assess(bg, wl.Base.Instance)
				if err != nil {
					return nil, err
				}
				return a.Versions, nil
			})
		}, nil
	}}
}

func facadeColdEntry(n int) Entry {
	return Entry{key("BenchmarkFacadeColdAssess", n, 0), func() (Body, error) {
		wl, qc, _, err := facadeFixture(n)
		if err != nil {
			return nil, err
		}
		return func(b *testing.B) error {
			return coldAssess(b, wl.Base.ExpectedClean, func() (map[string]*storage.Relation, error) {
				a, err := qc.Assess(bg, wl.Base.Instance)
				if err != nil {
					return nil, err
				}
				return a.Versions(), nil
			})
		}, nil
	}}
}

// tickLoop is the loop every warm family shares: each op runs step on
// the next delta tick against the session open built, and open runs
// again off the clock every warmResetTicks ticks so the measured
// instance stays near its nominal size instead of growing with b.N.
func tickLoop(b *testing.B, open func() error, step func(tick int) error) error {
	if err := open(); err != nil {
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick := i % warmResetTicks
		if tick == 0 && i > 0 {
			b.StopTimer()
			if err := open(); err != nil {
				return err
			}
			b.StartTimer()
		}
		if err := step(tick); err != nil {
			return err
		}
	}
	return nil
}

// applier is a session under a warm benchmark: the engine's
// quality.Session or the facade's mdqa.Session.
type applier interface {
	Apply(context.Context, []datalog.Atom) (*engine.ApplyResult, error)
}

// warmApply times Apply of one ~1% delta tick against a saturated
// session from open, the steady-state cost of keeping quality versions
// current as data streams in. A non-nil after runs on each applied
// delta inside the timed op (the durable family's WAL append).
func warmApply(b *testing.B, wl *gen.StreamingWorkload, open func() (applier, error), after func([]datalog.Atom) error) error {
	var sess applier
	return tickLoop(b, func() (err error) {
		sess, err = open()
		return err
	}, func(tick int) error {
		delta, _ := wl.Tick(tick)
		if _, err := sess.Apply(bg, delta); err != nil {
			return fmt.Errorf("apply tick %d: %w", tick, err)
		}
		if after != nil {
			return after(delta)
		}
		return nil
	})
}

func warmEntry(n, p int) Entry {
	return Entry{key("BenchmarkWarmAssess", n, p), func() (Body, error) {
		wl, _, prep, err := engineFixture(n, p)
		return func(b *testing.B) error {
			return warmApply(b, wl, func() (applier, error) { return prep.NewSession(bg, wl.Base.Instance) }, nil)
		}, err
	}}
}

func facadeWarmEntry(n int) Entry {
	return Entry{key("BenchmarkFacadeWarmApply", n, 0), func() (Body, error) {
		wl, _, prep, err := facadeFixture(n)
		return func(b *testing.B) error {
			return warmApply(b, wl, func() (applier, error) { return prep.NewSession(bg, wl.Base.Instance) }, nil)
		}, err
	}}
}

// durableEntry is the warm apply with every acknowledged batch
// write-ahead logged through a persist.SessionLog at one fsync mode.
// Each round logs into a fresh session whose initial full-state
// snapshot (what a server writes at session create) stays off the
// clock; the measured op is apply plus WAL append.
func durableEntry(n int, mode wal.SyncMode, dir string) Entry {
	return Entry{fmt.Sprintf("BenchmarkDurableWarmApply/n=%d/fsync=%s", n, mode), func() (Body, error) {
		wl, _, prep, err := engineFixture(n, 0)
		if err != nil {
			return nil, err
		}
		base, err := prep.NewSession(bg, wl.Base.Instance)
		if err != nil {
			return nil, err
		}
		state := base.Export()
		root, err := os.MkdirTemp(dir, "durable-*")
		if err != nil {
			return nil, err
		}
		store, err := persist.OpenStore(root, persist.Options{WAL: wal.Options{Mode: mode}})
		sid := 0
		return func(b *testing.B) error {
			sid++
			log, err := store.CreateSession("bench", fmt.Sprintf("s%d", sid), persist.Meta{}, state)
			if err != nil {
				return fmt.Errorf("create session log: %w", err)
			}
			err = warmApply(b, wl, func() (applier, error) { return prep.NewSession(bg, wl.Base.Instance) },
				func(delta []datalog.Atom) error {
					if _, err := log.Append(delta); err != nil {
						return fmt.Errorf("wal append: %w", err)
					}
					return nil
				})
			return errors.Join(err, log.Close())
		}, err
	}}
}

// refreshEntry measures Session.Refresh folding a federated contextual
// stream. The workload's ward assignments arrive through a bound
// in-memory source instead of the apply stream: each op ingests one
// tick's measurements and time members via Apply and publishes its
// ward rows to the source (both off the clock), then times the refresh
// that folds them through the incremental chase. Next to the same
// size's BenchmarkFacadeColdAssess the delta is what refresh saves over
// cold re-assessment.
func refreshEntry(n int) Entry {
	return Entry{key("BenchmarkSourceRefresh", n, 0), func() (Body, error) {
		wards := mdqa.NewMemSource(mdqa.SourceSchema{
			Relation: "PatientWard",
			Attrs:    []string{"Ward", "Day", "Patient"},
		})
		wl, _, prep, err := facadeFixture(n, mdqa.WithSource("wards", wards))
		return func(b *testing.B) error {
			var sess *mdqa.Session
			return tickLoop(b, func() (err error) {
				wards.Set()
				sess, err = prep.NewSession(bg, wl.Base.Instance)
				return err
			}, func(tick int) error {
				b.StopTimer()
				delta, _ := wl.Tick(tick)
				rest := delta[:0:0]
				for _, a := range delta {
					if a.Pred == "PatientWard" {
						wards.Add(a.Args[0].Name, a.Args[1].Name, a.Args[2].Name)
					} else {
						rest = append(rest, a)
					}
				}
				if _, err := sess.Apply(bg, rest); err != nil {
					return fmt.Errorf("refresh ingest: %w", err)
				}
				b.StartTimer()
				rr, err := sess.Refresh(bg)
				if err != nil {
					return fmt.Errorf("refresh: %w", err)
				}
				if !rr.Changed || rr.Rebuilt {
					return fmt.Errorf("refresh changed=%v rebuilt=%v, want an incremental change", rr.Changed, rr.Rebuilt)
				}
				return nil
			})
		}, err
	}}
}

// dashboardQuery is the clean dashboard poll the read families stream:
// a selective join bound to the last patient, who is always in the
// clean half of the generated population. Four atoms make the compile
// cost representative of a real dashboard join (measurement, its
// quality witness, the unit it was taken in).
func dashboardQuery(n int) string {
	patient := fmt.Sprintf("p%d", streamWorkloadSpec(n).Base.Patients-1)
	return fmt.Sprintf(
		`q(t, v, u) <- Measurements(t, %q, v), RightTherm(t, %q), PatientUnit(u, d, %q), DayTime(d, t)`,
		patient, patient, patient)
}

// readAnswers times one read per op: read resolves the answer stream,
// which must not be empty.
func readAnswers(b *testing.B, read func() (iter.Seq2[mdqa.Answer, error], error)) error {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		answers, err := read()
		if err != nil {
			return err
		}
		got := 0
		for _, err := range answers {
			if err != nil {
				return err
			}
			got++
		}
		if got == 0 {
			return errors.New("dashboard query returned no answers")
		}
	}
	return nil
}

// adhocCacheSize mirrors mdserve's per-context plan cache capacity.
const adhocCacheSize = 128

// adhocEntry measures the server's repeated ad-hoc query path (parse
// the query source, plan it, stream the clean answers off a session
// snapshot) without or with a shared plan cache. Answer streaming is
// cheap, so the off/on delta isolates the per-request planning cost
// the cache amortizes for repeated queries.
func adhocEntry(n int, cached bool) Entry {
	label := "off"
	if cached {
		label = "on"
	}
	return Entry{fmt.Sprintf("BenchmarkAdhocQuery/n=%d/cache=%s", n, label), func() (Body, error) {
		wl, _, prep, err := facadeFixture(n)
		if err != nil {
			return nil, err
		}
		sess, err := prep.NewSession(bg, wl.Base.Instance)
		if err != nil {
			return nil, err
		}
		snap, src := sess.Snapshot(), dashboardQuery(n)
		var pc *mdqa.PlanCache
		if cached {
			pc = mdqa.NewPlanCache(adhocCacheSize)
		}
		return func(b *testing.B) error {
			return readAnswers(b, func() (iter.Seq2[mdqa.Answer, error], error) {
				q, err := mdqa.ParseQuery(src)
				if err != nil {
					return nil, err
				}
				return snap.CleanAnswersCached(q, pc), nil
			})
		}, nil
	}}
}

// asOfEntry measures the time-travel read path next to the live one.
// The session applies a few ticks so the history ring holds several
// versions; each op then resolves a view (the latest, or a version by
// number) and streams the dashboard query. A ring hit is a handle
// lookup, not a replay, so asof must stay within noise of live.
func asOfEntry(n int, label string, view ...mdqa.ViewOption) Entry {
	return Entry{fmt.Sprintf("BenchmarkAsOfAnswers/n=%d/view=%s", n, label), func() (Body, error) {
		wl, _, prep, err := facadeFixture(n)
		if err != nil {
			return nil, err
		}
		sess, err := prep.NewSession(bg, wl.Base.Instance)
		if err != nil {
			return nil, err
		}
		for tick := 0; tick < 4; tick++ {
			delta, _ := wl.Tick(tick)
			if _, err := sess.Apply(bg, delta); err != nil {
				return nil, err
			}
		}
		q, err := mdqa.ParseQuery(dashboardQuery(n))
		return func(b *testing.B) error {
			return readAnswers(b, func() (iter.Seq2[mdqa.Answer, error], error) {
				snap, err := sess.View(view...)
				if err != nil {
					return nil, err
				}
				return snap.CleanAnswers(q), nil
			})
		}, err
	}}
}
