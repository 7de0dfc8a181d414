package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/gen"
)

// workload is one named traffic mix: its generated inputs, its
// topology flags and its arrival process.
type workload struct {
	Name string
	// N is the number of measurements in each session's (or each
	// assessment's) base instance; ticks add 4 measurements each.
	N int
	// OpenLoop workloads offer Rate ops/s on a fixed schedule through
	// Conns connections; the closed loop (cold-assess) has one caller
	// that sends its next request when the previous one returns.
	OpenLoop bool
	Rate     float64
	Conns    int
	// Sessions is the session population, with popularity zipf
	// 1.0 (weight of rank r ∝ 1/(r+1)), and SeedTicks the ticks each
	// session absorbs during set-up, before the clock starts.
	Sessions  int
	SeedTicks int
	// WriteFrac is the share of apply batches; of the rest, AsOfFrac
	// are ?as_of= reads and the remainder relation-scope scans of
	// Measurements.
	WriteFrac, AsOfFrac float64
	// Durable shards run with -data-dir, -fsync Fsync and
	// -max-resident-sessions MaxResident (per shard).
	Durable     bool
	Fsync       string
	MaxResident int
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json names
// them and says why each exists.
var workloads = []workload{
	{
		Name: "serve-read", N: 400, OpenLoop: true, Rate: 100, Conns: 2,
		Sessions: 8, SeedTicks: 8,
		WriteFrac: 0.10, AsOfFrac: 0.10,
	},
	{
		Name: "serve-ingest", N: 400, OpenLoop: true, Rate: 12, Conns: 1,
		Sessions: 16, SeedTicks: 2,
		WriteFrac: 0.80,
		Durable:   true, Fsync: "interval", MaxResident: 4,
	},
	{
		Name: "cold-assess", N: 1600, OpenLoop: false, Conns: 1,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// streamSpec is the generated quality workload at w.N measurements
// with one arriving patient (4 measurements) per tick. The seed only
// moves ward assignments and values, so every seed does the same
// amount of work.
func (w workload) streamSpec(seed int64) gen.StreamSpec {
	return gen.StreamSpec{
		Base:         gen.QualitySpec{Patients: w.N / 4, Days: 4, Wards: 3, DirtyRatio: 0.5, Seed: seed},
		TickPatients: 1,
	}
}

type opKind uint8

const (
	opRead   opKind = iota // live clean relation-scope scan
	opAsOf                 // clean scan at a retained past version
	opWrite                // one apply batch (a generated tick)
	opAssess               // one-shot assessment
)

var opNames = [...]string{"read", "asof", "write", "assess"}

func (k opKind) String() string { return opNames[k] }

// op is one entry of the seeded op stream.
type op struct {
	ID      int
	Due     time.Duration // offset of the scheduled send from the start
	Kind    opKind
	Session int
	// Tick is the generated tick a write applies; ticks are numbered
	// per session, continuing after the set-up ticks.
	Tick int
	// Back is how many versions behind the latest acknowledged one an
	// as-of read looks (1..asOfMaxBack).
	Back int
	// Warm ops run before the measured seconds: they are sent, counted
	// and checked like the others but not timed.
	Warm bool
}

// warmup is how long the load runs before the measured seconds
// start, so that connections, caches and the first evictions settle
// outside the timed ops.
const warmup = 2 * time.Second

// asOfMaxBack keeps as-of targets inside the default 8-deep history
// ring even if one more write lands while the read is in flight.
const asOfMaxBack = 6

// opStream generates the open-loop arrivals of one run: Rate ops/s for
// warmup plus the given duration, on a fixed grid; the ops of the
// warm-up are marked Warm. The schedule is a smooth weighted round
// robin: sessions take turns, one op each, in proportion to their
// zipf weights, and each session's ops cycle
// through the workload's mix by running rounding, so the shares hold
// exactly over any stretch of the run. The seed picks the generated
// data and the as-of depths; the amount and order of work is the same
// for every seed, which keeps the server's cache evictions (and the
// work they cost) from varying with the seed.
func opStream(w workload, seed int64, d time.Duration) []op {
	rng := rand.New(rand.NewSource(seed))
	weights := zipfWeights(w.Sessions)
	share := make([]float64, w.Sessions)  // running session allotments
	mix := make([][2]float64, w.Sessions) // running write/as-of allotments
	next := make([]int, w.Sessions)
	for i := range next {
		next[i] = w.SeedTicks
	}
	interval := time.Duration(float64(time.Second) / w.Rate)
	warm := int(math.Round(warmup.Seconds() * w.Rate))
	n := warm + int(math.Round(d.Seconds()*w.Rate))
	ops := make([]op, 0, n)
	for len(ops) < n {
		s := 0
		for i := range share {
			share[i] += weights[i]
			if share[i] > share[s] {
				s = i
			}
		}
		share[s]--
		o := op{ID: len(ops), Due: time.Duration(len(ops)) * interval, Session: s}
		o.Warm = len(ops) < warm
		m := &mix[s]
		m[0] += w.WriteFrac
		m[1] += (1 - w.WriteFrac) * w.AsOfFrac
		switch {
		case m[0] >= 1:
			m[0]--
			o.Kind = opWrite
			o.Tick = next[s]
			next[s]++
		case m[1] >= 1:
			m[1]--
			o.Kind = opAsOf
			o.Back = 1 + rng.Intn(asOfMaxBack)
		default:
			o.Kind = opRead
		}
		ops = append(ops, o)
	}
	return ops
}

// zipfWeights are the session popularities, zipf 1.0: rank r gets a
// share proportional to 1/(r+1).
func zipfWeights(n int) []float64 {
	ws := make([]float64, n)
	total := 0.0
	for r := range ws {
		ws[r] = 1 / float64(r+1)
		total += ws[r]
	}
	for r := range ws {
		ws[r] /= total
	}
	return ws
}

// sessionID names session i of the population.
func sessionID(i int) string { return fmt.Sprintf("b%02d", i) }

// scanQuery is every read's query: repeated text, so the server's
// plan cache hits.
const scanQuery = "m(t, p, v) <- Measurements(t, p, v)."
