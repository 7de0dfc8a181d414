package storage

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/datalog"
)

// domainTerm is the i-th constant of the test domain.
func domainTerm(i int) datalog.Term { return datalog.C(fmt.Sprintf("d%d", i)) }

// TestSnapshotWriteCostIsDelta pins the cost class of version
// retention: after a snapshot of a large relation, the next writes
// allocate in proportion to the rows they add, not to the relation.
func TestSnapshotWriteCostIsDelta(t *testing.T) {
	const base, added, domain = 50_000, 100, 250
	db := NewInstance()
	// Intern the whole domain up front, so the measured inserts grow
	// no interner table.
	for i := range domain {
		db.MustInsert("Dom", domainTerm(i))
	}
	row := func(i int) []datalog.Term {
		return []datalog.Term{domainTerm(i % domain), domainTerm(i / domain % domain), domainTerm(i % 7)}
	}
	for i := range base {
		db.MustInsert("R", row(i)...)
	}
	snap := db.Snapshot()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := base; i < base+added; i++ {
		db.MustInsert("R", row(i)...)
	}
	runtime.ReadMemStats(&after)

	// Each added row costs its arena share, its posting entries and
	// the occasional fresh chunk; 1 KiB a row leaves room for those
	// and is two orders of magnitude below a copy of the relation.
	const bound = added * 1024
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("inserting %d rows after a snapshot of %d allocated %d bytes, want ≤ %d", added, base, got, bound)
	}
	if got := snap.Relation("R").Len(); got != base {
		t.Fatalf("snapshot sees %d rows, want %d", got, base)
	}
	if got := db.Relation("R").Len(); got != base+added {
		t.Fatalf("writer has %d rows, want %d", got, base+added)
	}
}

// viewContent is everything the readers of one view check.
type viewContent struct {
	len     int
	rows    [][]int32
	absent  [][]int32 // rows the writer inserts after the snapshot
	matches [][]int32 // Plan.Execute output, in order
}

// collect runs a plan over db (one shard of n when n > 1) and returns
// the matches as copied register banks.
func collect(p *Plan, db *Instance, shard, n int) [][]int32 {
	var out [][]int32
	fn := func(regs []int32) bool {
		out = append(out, slices.Clone(regs))
		return true
	}
	if n > 1 {
		p.ExecuteShard(db, p.NewRegs(), shard, n, fn)
	} else {
		p.Execute(db, p.NewRegs(), fn)
	}
	return out
}

// TestSnapshotConcurrentReaders reads one view from several goroutines
// while the writer appends past every growth point — dedup-table
// growth, posting-list migration, index-array growth, spine growth —
// and then rewrites the relation with a ReplaceTerms merge. Every read
// must return the view's content at snapshot time. Run under -race it
// also checks that the view and the writer share memory safely.
func TestSnapshotConcurrentReaders(t *testing.T) {
	const base, added = 1000, 5000
	db := NewInstance()
	if _, err := db.CreateRelation("R", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	row := func(i int) []datalog.Term {
		return []datalog.Term{domainTerm(i), domainTerm(i % 13), domainTerm(i % 101)}
	}
	for i := range base {
		db.MustInsert("R", row(i)...)
	}
	snap := db.Snapshot()
	view := snap.Relation("R")

	// A constant probe and a two-atom join; plans compile against the
	// view, as a server compiles a query against the snapshot it reads.
	probe := CompileQueryPlan(snap, []datalog.Atom{datalog.A("R", datalog.V("x"), domainTerm(5), datalog.V("z"))})
	join := CompileQueryPlan(snap, []datalog.Atom{
		datalog.A("R", datalog.V("x"), datalog.V("y"), datalog.V("z")),
		datalog.A("R", datalog.V("u"), datalog.V("y"), domainTerm(7)),
	})
	want := map[*Plan]viewContent{}
	for _, p := range []*Plan{probe, join} {
		want[p] = viewContent{matches: collect(p, snap, 0, 1)}
	}
	if len(want[probe].matches) == 0 || len(want[join].matches) == 0 {
		t.Fatal("test plans match nothing")
	}
	rows := make([][]int32, base)
	for i := range rows {
		rows[i] = slices.Clone(view.Row(i))
	}
	// Rows the writer will add, in the view's ids (the domain terms
	// they use exist at snapshot time for i < base).
	var absent [][]int32
	for i := base; i < base+added; i += 97 {
		ids := make([]int32, 0, 3)
		for _, term := range []datalog.Term{domainTerm(i % base), domainTerm(i % 13), domainTerm(i % 101)} {
			id, ok := snap.Interner().Lookup(term)
			if !ok {
				t.Fatalf("term %v not in the view's interner", term)
			}
			ids = append(ids, id)
		}
		absent = append(absent, ids)
		// The writer inserts exactly these rows below.
	}

	check := func() error {
		if view.Len() != base || len(view.Rows()) != base {
			return fmt.Errorf("view has %d rows, want %d", view.Len(), base)
		}
		for i, r := range view.Rows() {
			if !slices.Equal(r, rows[i]) {
				return fmt.Errorf("row %d = %v, want %v", i, r, rows[i])
			}
		}
		for i := 0; i < base; i += 7 {
			if !view.ContainsRow(rows[i]) {
				return fmt.Errorf("view lost row %v", rows[i])
			}
		}
		for _, r := range absent {
			if view.ContainsRow(r) {
				return fmt.Errorf("view sees row %v the writer added later", r)
			}
		}
		for p, w := range want {
			if got := collect(p, snap, 0, 1); !slices.EqualFunc(got, w.matches, slices.Equal) {
				return fmt.Errorf("Execute: %d matches, want %d", len(got), len(w.matches))
			}
			var shards [][]int32
			for s := range 3 {
				shards = append(shards, collect(p, snap, s, 3)...)
			}
			if !slices.EqualFunc(shards, w.matches, slices.Equal) {
				return fmt.Errorf("ExecuteShard: %d matches, want %d", len(shards), len(w.matches))
			}
		}
		return nil
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := check(); err != nil {
					errs <- err
					return
				}
				select {
				case <-done:
					errs <- check() // once more against the final writer state
					return
				default:
				}
			}
		}()
	}

	live := db.Relation("R")
	for i := base; i < base+added; i++ {
		terms := row(i)
		if (i-base)%97 == 0 {
			terms[0] = domainTerm(i % base) // one of the absent rows
		}
		if _, err := live.Insert(terms); err != nil {
			t.Error(err)
		}
	}
	db.ReplaceTerm(domainTerm(5), domainTerm(6))
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if live.Contains(row(5)) {
		t.Error("writer still holds a rewritten row")
	}
}

// TestRetainedBytesCharges checks what a view is charged: nothing for
// appends that fit the shared structures, the replaced structures on
// growth, and the whole relation when the owner retires it.
func TestRetainedBytesCharges(t *testing.T) {
	db := NewInstance()
	for i := range 100 {
		db.MustInsert("R", domainTerm(i), domainTerm(i%3))
	}
	if db.RetainedBytes() != 0 {
		t.Fatal("a live instance retains nothing")
	}
	snap := db.Snapshot()
	own := snap.RetainedBytes()
	if own <= 0 {
		t.Fatal("a snapshot costs at least its interner fork")
	}
	db.MustInsert("R", domainTerm(0), domainTerm(1))
	if got := snap.RetainedBytes(); got != own {
		t.Fatalf("one append charged %d bytes to the snapshot", got-own)
	}
	for i := 100; i < 1000; i++ {
		db.MustInsert("R", domainTerm(i), domainTerm(i%3))
	}
	grown := snap.RetainedBytes()
	if grown <= own {
		t.Fatal("growth past the snapshot's tables charged nothing")
	}
	db.Retire()
	if got := snap.RetainedBytes() - grown; got < int64(1000*rowBytes(2)) {
		t.Fatalf("retiring the live instance charged %d bytes, less than its rows", got)
	}
}
