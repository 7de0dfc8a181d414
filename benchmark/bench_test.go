package main

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/load"
)

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads[:2] {
		a, b := opStream(w, 7, 5*time.Second), opStream(w, 7, 5*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two streams from seed 7 differ", w.Name)
		}
		warm := int(warmup.Seconds() * w.Rate)
		for _, o := range a {
			if o.Warm != (o.ID < warm) {
				t.Fatalf("%s: op %d due %s marked warm = %v", w.Name, o.ID, o.Due, o.Warm)
			}
		}
		if len(a)-warm != int(5*w.Rate) {
			t.Fatalf("%s: %d measured ops, want %d", w.Name, len(a)-warm, int(5*w.Rate))
		}
		next := map[int]int{}
		writes := 0
		for _, o := range a {
			if o.Kind != opWrite {
				continue
			}
			writes++
			if want := w.SeedTicks + next[o.Session]; o.Tick != want {
				t.Fatalf("%s: op %d writes tick %d of session %d, want %d", w.Name, o.ID, o.Tick, o.Session, want)
			}
			next[o.Session]++
		}
		// Running rounding holds each session's write share to within
		// one op.
		if want := w.WriteFrac * float64(len(a)); float64(writes) < want-float64(w.Sessions) || float64(writes) > want+1 {
			t.Fatalf("%s: %d writes, want about %.0f", w.Name, writes, want)
		}
	}
}

func TestOpStreamSeedMovesTargetsNotWork(t *testing.T) {
	w := workloads[0]
	a, b := opStream(w, 1, 5*time.Second), opStream(w, 2, 5*time.Second)
	same := true
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Session != b[i].Session {
			t.Fatalf("op %d: seeds 1 and 2 schedule different work", i)
		}
		if a[i].Back != b[i].Back {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 pick the same read targets")
	}
}

func TestP99NeedsAThousandSamples(t *testing.T) {
	for _, n := range []int{999, 1000} {
		var h load.Histogram
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
		rep := &report{}
		rep.latency("read", &h)
		m := rep.metrics("read_p50_ms", "read_p99_ms")
		if _, ok := m["read_p50_ms"]; !ok {
			t.Fatalf("n=%d: no p50", n)
		}
		if _, ok := m["read_p99_ms"]; ok != (n >= 1000) {
			t.Fatalf("n=%d: p99 reported = %v", n, ok)
		}
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op.write", op: 1, parent: -1, start: 0, end: 100 * ms},
		{name: "a", op: 1, parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", op: 1, parent: 0, start: 30 * ms, end: 60 * ms}, // overlaps a
		{name: "c", op: 1, parent: 1, start: 15 * ms, end: 20 * ms},
		{name: "d", op: 1, parent: 0, start: 90 * ms, end: 120 * ms}, // runs past its parent
	}
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 5 * ms, 30 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	var b strings.Builder
	writeSelfTable(&b, spans)
	if !strings.Contains(b.String(), "(unattributed)") || !strings.Contains(b.String(), "40.0%") {
		t.Fatalf("self table lacks the unattributed remainder:\n%s", b.String())
	}
	if st := byName(spans)["a"]; st.calls != 1 || st.mean() != 30*ms {
		t.Fatalf("byName(a) = %+v", st)
	}
}

func TestContextSourceAssessesLikeGen(t *testing.T) {
	stream, err := gen.NewStreamingWorkload(workload{N: 40}.streamSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(context.Background(), contextSource(stream.Base))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ref.newSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Assess(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m := a.Measures()["Measurements"]; m.Quality != stream.Base.ExpectedClean || m.Original != 40 {
		t.Fatalf("clean %d of %d, want %d of 40", m.Quality, m.Original, stream.Base.ExpectedClean)
	}
}

func TestFreeAddrNeverRepeats(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		addr, err := freeAddr()
		if err != nil {
			t.Fatal(err)
		}
		if seen[addr] {
			t.Fatalf("freeAddr returned %s twice", addr)
		}
		seen[addr] = true
	}
}
