// Package storage implements the in-memory relational substrate the
// ontologies run on: named relations of ground tuples (constants and
// labeled nulls), per-position hash indexes, homomorphism search for
// conjunctions, and utilities for diffing and pretty-printing that the
// experiment harness uses to regenerate the paper's tables.
//
// Tuples are stored twice: as []datalog.Term (the public API) and as
// interned []int32 rows (the evaluation hot path). The two views are
// kept in lockstep; dedup, index probes and join execution all work on
// the integer rows, so no string keys are built on insert, lookup or
// match.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/datalog"
)

// Schema describes a relation: its name and attribute names. Attribute
// names are carried for documentation and table printing; matching is
// positional.
type Schema struct {
	Name  string
	Attrs []string
}

// Arity returns the number of attributes.
func (s Schema) Arity() int { return len(s.Attrs) }

// String renders the schema as Name(attr1, ..., attrN).
func (s Schema) String() string {
	return s.Name + "(" + strings.Join(s.Attrs, ", ") + ")"
}

// Relation is a set of ground tuples under a schema, with hash indexes
// on every position maintained incrementally. Tuples are deduplicated.
//
// A relation is either live (one writer appends to it) or a frozen
// view of a live relation (see Instance.Snapshot). A view is a row
// watermark: it holds the live relation's first n rows and the index
// structures as they were when it was taken, and ignores every index
// entry naming a row at or past n. The writer only appends to those
// structures, so taking a view and the writes after it cost
// O(rows appended), not O(relation). Only rewrites — ReplaceTerms,
// Delete — build the relation's structures afresh, leaving the old
// ones to the views.
type Relation struct {
	schema Schema
	in     *datalog.Interner
	// tuples and rows are the term and interned views of the tuples,
	// in insertion order. Both are append-only: a view holds a prefix
	// of the same arrays.
	tuples [][]datalog.Term
	rows   [][]int32
	// dedup finds a row by content; post[pos] finds the rows holding a
	// term id at position pos (see index.go).
	dedup *rowTable
	post  []postingIndex
	// distinct[pos] and maxBucket[pos] are the number of distinct
	// terms and the longest posting list at position pos, maintained
	// on append. With Len they are the live statistics the cost-based
	// planner reads.
	distinct  []int
	maxBucket []int
	// Chunked arenas back the per-tuple row and term slices and the
	// posting lists, so bulk loads and chase/eval insert storms cost
	// one allocation per chunk instead of one or two per tuple.
	rowArena  datalog.Int32Arena
	termArena datalog.Arena[datalog.Term]
	postAlloc postingAlloc
	// frozen marks a view: every mutating method fails.
	frozen bool

	// Memory accounting (see charge). snaps counts the views taken of
	// this live relation; each replaceable structure records the count
	// at which it was built, and spineGen does so for the tuples/rows
	// arrays. newest accumulates the bytes charged to the latest view;
	// the history layer reads it from other goroutines.
	snaps    uint32
	spineGen uint32
	newest   *atomic.Int64
}

// errFrozen is returned (or panicked, for methods without an error
// path) by mutating methods on frozen snapshot relations.
func errFrozen(name string) error {
	return fmt.Errorf("storage: relation %s is a frozen snapshot", name)
}

// Frozen reports whether the relation is an immutable snapshot.
func (r *Relation) Frozen() bool { return r.frozen }

// snapshot returns a frozen view of the relation's current rows,
// resolving terms against the forked interner in, and makes a fresh
// charge counter the newest (r.newest). It costs O(arity): the view
// shares every array and index with the live relation.
func (r *Relation) snapshot(in *datalog.Interner) *Relation {
	n := len(r.rows)
	r.snaps++
	r.newest = new(atomic.Int64)
	return &Relation{
		schema: r.schema,
		in:     in,
		tuples: r.tuples[:n:n],
		rows:   r.rows[:n:n],
		dedup:  r.dedup,
		// The writer replaces its own index arrays and statistics
		// when they grow, so the view keeps its own copies of their
		// headers.
		post:      append([]postingIndex(nil), r.post...),
		distinct:  append([]int(nil), r.distinct...),
		maxBucket: append([]int(nil), r.maxBucket...),
		frozen:    true,
	}
}

// charge attributes the bytes of a structure the writer is replacing
// to the newest view, if any view was taken since the structure was
// built (gen is the snapshot count at that point). The views taken
// since then are the structure's only holders from now on, and views
// are released oldest first (the history ring evicts that way), so it
// is freed with the newest of them.
func (r *Relation) charge(gen uint32, bytes int) {
	if r.snaps > gen {
		r.newest.Add(int64(bytes))
	}
}

// NewRelation creates an empty relation with a private interner. Use
// Instance.CreateRelation when relations must share an interner (which
// all relations of one instance do).
func NewRelation(schema Schema) *Relation {
	return newRelation(schema, datalog.NewInterner())
}

func newRelation(schema Schema, in *datalog.Interner) *Relation {
	arity := schema.Arity()
	return &Relation{
		schema:    schema,
		in:        in,
		dedup:     newRowTable(0, 0),
		post:      make([]postingIndex, arity),
		distinct:  make([]int, arity),
		maxBucket: make([]int, arity),
	}
}

// Schema returns the relation schema.
func (r *Relation) Schema() Schema { return r.schema }

// Name returns the relation name.
func (r *Relation) Name() string { return r.schema.Name }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rows) }

// Interner returns the interner backing this relation's rows.
func (r *Relation) Interner() *datalog.Interner { return r.in }

func rowsEqual(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookupRow returns the index of the row equal to ids, if present
// (-1 otherwise).
func (r *Relation) lookupRow(ids []int32) (int, bool) {
	idx := r.dedup.find(r.rows, ids, datalog.HashInt32s(ids))
	return idx, idx >= 0
}

// appendRow stores an already-deduplicated row and its term view and
// indexes it, maintaining the per-position statistics in the same
// pass. Every structure a view may hold is only appended to; a full
// one is replaced by a larger copy and charged to the views.
func (r *Relation) appendRow(ids []int32, terms []datalog.Term, h uint64) {
	idx := len(r.rows)
	if idx == cap(r.rows) {
		r.growSpine(idx)
	}
	r.rows = append(r.rows, ids)
	r.tuples = append(r.tuples, terms)
	if 2*(idx+1) > len(r.dedup.slots) {
		r.charge(r.dedup.gen, r.dedup.bytes())
		t := newRowTable(idx+1, r.snaps)
		for i, row := range r.rows[:idx] {
			t.put(datalog.HashInt32s(row), i)
		}
		r.dedup = t
	}
	r.dedup.put(h, idx)
	for pos, id := range ids {
		r.addPosting(pos, id, int32(idx))
	}
}

// growSpine moves the tuples and rows arrays (both full at length n)
// into arrays of twice the capacity.
func (r *Relation) growSpine(n int) {
	c := max(2*n, 16)
	r.charge(r.spineGen, spineBytes(n))
	rows := make([][]int32, n, c)
	copy(rows, r.rows)
	tuples := make([][]datalog.Term, n, c)
	copy(tuples, r.tuples)
	r.rows, r.tuples, r.spineGen = rows, tuples, r.snaps
}

// spineBytes is the memory of tuples and rows arrays of capacity c.
func spineBytes(c int) int { return 48 * c }

// addPosting appends row idx to the posting list of term id at
// position pos.
func (r *Relation) addPosting(pos int, id, idx int32) {
	pi := &r.post[pos]
	if int(id) >= len(pi.lists) {
		lists := make([]atomic.Pointer[postingList], max(2*len(pi.lists), int(id)+1, 16))
		for i := range pi.lists {
			lists[i].Store(pi.lists[i].Load())
		}
		r.charge(pi.gen, 8*len(pi.lists))
		pi.lists, pi.gen = lists, r.snaps
	}
	slot := &pi.lists[id]
	pl := slot.Load()
	var k int32
	publish := false
	if pl == nil {
		pl = r.postAlloc.list(minPostingCap, r.snaps)
		r.distinct[pos]++
		publish = true
	} else if k = pl.n.Load(); int(k) == len(pl.ids) {
		old := pl
		pl = r.postAlloc.list(2*int(k), r.snaps)
		copy(pl.ids, old.ids)
		r.charge(old.gen, old.bytes())
		publish = true
	}
	// The entry is stored before the length that publishes it, and a
	// new list is complete before its pointer is.
	pl.ids[k] = idx
	pl.n.Store(k + 1)
	if publish {
		slot.Store(pl)
	}
	if int(k)+1 > r.maxBucket[pos] {
		r.maxBucket[pos] = int(k) + 1
	}
}

// postings returns the ascending indexes of the rows holding term id
// at position pos. A view drops the entries the writer appended past
// its watermark — a suffix, since lists are ascending. Unknown and
// sentinel (negative) ids have no rows. The slice is owned by the
// relation.
func (r *Relation) postings(pos int, id int32) []int32 {
	lists := r.post[pos].lists
	if uint(id) >= uint(len(lists)) {
		return nil
	}
	pl := lists[id].Load()
	if pl == nil {
		return nil
	}
	k := int(pl.n.Load())
	ids := pl.ids[:k:k]
	if n := int32(len(r.rows)); k > 0 && ids[k-1] >= n {
		lo, hi := 0, k
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if ids[m] < n {
				lo = m + 1
			} else {
				hi = m
			}
		}
		ids = ids[:lo]
	}
	return ids
}

// DistinctAt returns the number of distinct term ids stored at
// argument position pos — the live distinct-count statistic.
func (r *Relation) DistinctAt(pos int) int { return r.distinct[pos] }

// MaxBucketAt returns the size of the largest posting list at
// position pos: the frequency of the most common value, an upper
// bound on any index probe at that position.
func (r *Relation) MaxBucketAt(pos int) int { return r.maxBucket[pos] }

// BucketLen returns the exact posting-list length for term id at
// position pos — what an index probe on that constant would scan.
func (r *Relation) BucketLen(pos int, id int32) int { return len(r.postings(pos, id)) }

// Insert adds a ground tuple. It returns true if the tuple was new, and
// an error on arity mismatch or non-ground terms.
func (r *Relation) Insert(tuple []datalog.Term) (bool, error) {
	if r.frozen {
		return false, errFrozen(r.schema.Name)
	}
	if len(tuple) != r.schema.Arity() {
		return false, fmt.Errorf("storage: %s expects %d attributes, got %d", r.schema.Name, r.schema.Arity(), len(tuple))
	}
	for _, t := range tuple {
		if t.IsVar() {
			return false, fmt.Errorf("storage: cannot insert non-ground tuple into %s: %v", r.schema.Name, datalog.TermsString(tuple))
		}
	}
	var buf [16]int32
	ids := r.in.IDs(tuple, buf[:0])
	h := datalog.HashInt32s(ids)
	if r.dedup.find(r.rows, ids, h) >= 0 {
		return false, nil
	}
	r.appendRow(r.rowArena.Copy(ids), r.termArena.Copy(tuple), h)
	return true, nil
}

// InsertRow adds a tuple given as interned term ids. The ids must come
// from this relation's interner; the slice is copied. It reports
// whether the row was new.
func (r *Relation) InsertRow(ids []int32) (bool, error) {
	_, isNew, err := r.insertRowStored(ids)
	return isNew, err
}

// insertRowStored is the core of InsertRow: it validates, dedups and
// stores the row, returning the arena-stored copy when the row was
// new (nil otherwise). Batch merging uses the stored slice to build
// delta-fact lists without re-copying.
func (r *Relation) insertRowStored(ids []int32) ([]int32, bool, error) {
	if r.frozen {
		return nil, false, errFrozen(r.schema.Name)
	}
	if len(ids) != r.schema.Arity() {
		return nil, false, fmt.Errorf("storage: %s expects %d attributes, got %d", r.schema.Name, r.schema.Arity(), len(ids))
	}
	for _, id := range ids {
		if id < 0 || int(id) >= r.in.Len() {
			return nil, false, fmt.Errorf("storage: %s: row id %d outside interner range", r.schema.Name, id)
		}
		if r.in.TermOf(id).IsVar() {
			return nil, false, fmt.Errorf("storage: cannot insert non-ground row into %s", r.schema.Name)
		}
	}
	h := datalog.HashInt32s(ids)
	if r.dedup.find(r.rows, ids, h) >= 0 {
		return nil, false, nil
	}
	stored := r.rowArena.Copy(ids)
	var tbuf [16]datalog.Term
	terms := r.in.Terms(stored, tbuf[:0])
	r.appendRow(stored, r.termArena.Copy(terms), h)
	return stored, true, nil
}

// Contains reports whether the ground tuple is present. It allocates
// nothing: unknown terms short-circuit to false.
func (r *Relation) Contains(tuple []datalog.Term) bool { return r.IndexOf(tuple) >= 0 }

// IndexOf returns the insertion index of the ground tuple (its
// position in Tuples), or -1 when it is absent. Like Contains it
// allocates nothing.
func (r *Relation) IndexOf(tuple []datalog.Term) int {
	if len(tuple) != r.schema.Arity() {
		return -1
	}
	var buf [16]int32
	ids := buf[:0]
	if len(tuple) > len(buf) {
		ids = make([]int32, 0, len(tuple))
	}
	for _, t := range tuple {
		id, ok := r.in.Lookup(t)
		if !ok {
			return -1
		}
		ids = append(ids, id)
	}
	idx, _ := r.lookupRow(ids)
	return idx
}

// ContainsRow reports whether the row of interned ids is present.
func (r *Relation) ContainsRow(ids []int32) bool {
	if len(ids) != r.schema.Arity() {
		return false
	}
	_, ok := r.lookupRow(ids)
	return ok
}

// Row returns the interned row at index i. The slice is owned by the
// relation; callers must not modify it.
func (r *Relation) Row(i int) []int32 { return r.rows[i] }

// Delete removes a ground tuple if present, reporting whether it was.
// Deletion rebuilds the relation's arrays and indexes; it is intended
// for low-frequency cleaning operations, not hot loops.
func (r *Relation) Delete(tuple []datalog.Term) bool {
	if r.frozen {
		panic(errFrozen(r.schema.Name))
	}
	if len(tuple) != r.schema.Arity() {
		return false
	}
	var buf [16]int32
	ids := buf[:0]
	for _, t := range tuple {
		id, ok := r.in.Lookup(t)
		if !ok {
			return false
		}
		ids = append(ids, id)
	}
	idx, ok := r.lookupRow(ids)
	if !ok {
		return false
	}
	n := len(r.rows)
	r.chargeIndexes()
	r.charge(0, rowBytes(r.schema.Arity()))
	rows := make([][]int32, 0, headroom(n))
	tuples := make([][]datalog.Term, 0, headroom(n))
	r.rows = append(append(rows, r.rows[:idx]...), r.rows[idx+1:]...)
	r.tuples = append(append(tuples, r.tuples[:idx]...), r.tuples[idx+1:]...)
	r.reindex()
	return true
}

// rowBytes is the memory of one stored row of the given arity: its
// interned ids and its terms.
func rowBytes(arity int) int { return 28 * arity }

// chargeIndexes charges the spine and every index structure a view
// holds to the newest view, before a rewrite or a retire drops them
// all.
func (r *Relation) chargeIndexes() {
	if r.snaps == 0 {
		return
	}
	r.charge(r.spineGen, spineBytes(cap(r.rows)))
	r.charge(r.dedup.gen, r.dedup.bytes())
	for pos := range r.post {
		pi := &r.post[pos]
		r.charge(pi.gen, 8*len(pi.lists))
		for i := range pi.lists {
			if pl := pi.lists[i].Load(); pl != nil {
				r.charge(pl.gen, pl.bytes())
			}
		}
	}
}

// headroom is the capacity a bulk-built array or posting list of c
// entries gets: a quarter spare, so the first appends after a clone or
// a rewrite do not move every array and list they touch.
func headroom(c int) int { return c + c/4 }

// reindex builds the dedup table, the posting lists and the
// statistics of r.rows (which must be duplicate-free) in fresh memory.
// Each posting list is carved to size, plus headroom, out of one array
// per position.
func (r *Relation) reindex() {
	n := len(r.rows)
	r.spineGen = r.snaps
	r.dedup = newRowTable(n, r.snaps)
	for i, row := range r.rows {
		r.dedup.put(datalog.HashInt32s(row), i)
	}
	r.postAlloc = postingAlloc{}
	for pos := range r.post {
		maxID := int32(-1)
		for _, row := range r.rows {
			maxID = max(maxID, row[pos])
		}
		counts := make([]int32, maxID+1)
		for _, row := range r.rows {
			counts[row[pos]]++
		}
		distinct, longest, size := 0, 0, 0
		for _, c := range counts {
			if c > 0 {
				distinct++
				longest = max(longest, int(c))
				size += headroom(int(c))
			}
		}
		lists := make([]atomic.Pointer[postingList], max(int(maxID)+1, 16))
		heads := make([]postingList, distinct)
		flat := make([]int32, size)
		off := 0
		for id, c := range counts {
			if c == 0 {
				continue
			}
			pl := &heads[0]
			heads = heads[1:]
			end := off + headroom(int(c))
			pl.ids, pl.gen = flat[off:end:end], r.snaps
			pl.n.Store(c)
			off = end
			lists[id].Store(pl)
			counts[id] = 0 // now the list's fill cursor
		}
		for i, row := range r.rows {
			id := row[pos]
			lists[id].Load().ids[counts[id]] = int32(i)
			counts[id]++
		}
		r.post[pos] = postingIndex{lists: lists, gen: r.snaps}
		r.distinct[pos], r.maxBucket[pos] = distinct, longest
	}
}

// Tuples returns the tuples in insertion order. The slice and its
// elements are owned by the relation; callers must not modify them.
func (r *Relation) Tuples() [][]datalog.Term { return r.tuples }

// Rows returns the interned rows in insertion order. The slice and its
// elements are owned by the relation; callers must not modify them.
func (r *Relation) Rows() [][]int32 { return r.rows }

// SortedTuples returns a copy of the tuples sorted lexicographically,
// for deterministic display.
func (r *Relation) SortedTuples() [][]datalog.Term {
	out := make([][]datalog.Term, len(r.tuples))
	copy(out, r.tuples)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return out
}

// ReplaceTerm rewrites every occurrence of old with new, deduplicating
// the result. It returns the number of tuples modified. It is the
// primitive used when the chase enforces an EGD by merging a labeled
// null into another term.
func (r *Relation) ReplaceTerm(old, new datalog.Term) int {
	return r.ReplaceTerms(map[datalog.Term]datalog.Term{old: new})
}

// ReplaceTerms applies a batch of term rewrites in one pass, following
// chains (a->b, b->c rewrites a to c) and rebuilding indexes exactly
// once. It returns the number of tuples modified. EGD enforcement uses
// it so one merge cascade triggers one rebuild instead of one per
// merge.
//
// Rewritten tuples get fresh storage and the relation's arrays and
// indexes are rebuilt in fresh memory, first occurrence kept where a
// rewrite makes tuples collide; views keep the old ones. Untouched
// tuples keep their storage, which views share.
func (r *Relation) ReplaceTerms(repl map[datalog.Term]datalog.Term) int {
	if r.frozen {
		panic(errFrozen(r.schema.Name))
	}
	if len(repl) == 0 {
		return 0
	}
	// Resolve chains up front so each term lookup is a single map hit.
	// Cyclic requests ({a->b, b->a}) are treated as merge classes: every
	// member of a cycle maps to the cycle's Compare-least term, so the
	// result is a deterministic merge rather than a parity-dependent
	// rotation.
	resolved := make(map[datalog.Term]datalog.Term, len(repl))
	for old := range repl {
		if to := resolveReplacement(repl, old); to != old {
			resolved[old] = to
		}
	}
	if len(resolved) == 0 {
		return 0
	}
	touches := func(tup []datalog.Term) bool {
		for _, t := range tup {
			if _, ok := resolved[t]; ok {
				return true
			}
		}
		return false
	}
	first := -1
	for i, tup := range r.tuples {
		if touches(tup) {
			first = i
			break
		}
	}
	if first < 0 {
		return 0
	}
	r.chargeIndexes()
	n := len(r.rows)
	oldRows, oldTuples := r.rows, r.tuples
	r.rows = make([][]int32, 0, headroom(n))
	r.tuples = make([][]datalog.Term, 0, headroom(n))
	r.dedup = newRowTable(n, r.snaps)
	changed := 0
	var buf [16]int32
	for i, tup := range oldTuples {
		row, rewritten := oldRows[i], false
		if i >= first && touches(tup) {
			changed++
			r.charge(0, rowBytes(len(tup)))
			tup = r.termArena.Copy(tup)
			for j, t := range tup {
				if to, ok := resolved[t]; ok {
					tup[j] = to
				}
			}
			row, rewritten = r.in.IDs(tup, buf[:0]), true
		}
		h := datalog.HashInt32s(row)
		if r.dedup.find(r.rows, row, h) >= 0 {
			continue
		}
		if rewritten {
			row = r.rowArena.Copy(row)
		}
		r.dedup.put(h, len(r.rows))
		r.rows = append(r.rows, row)
		r.tuples = append(r.tuples, tup)
	}
	r.reindex()
	return changed
}

// resolveReplacement follows the replacement chain from old to its
// terminal term. A chain that runs into a cycle resolves to the
// cycle's least member under Term.Compare.
func resolveReplacement(repl map[datalog.Term]datalog.Term, old datalog.Term) datalog.Term {
	cur := old
	var path []datalog.Term
	seen := map[datalog.Term]int{}
	for {
		next, ok := repl[cur]
		if !ok || next == cur {
			return cur
		}
		if at, dup := seen[cur]; dup {
			min := path[at]
			for _, t := range path[at+1:] {
				if t.Compare(min) < 0 {
					min = t
				}
			}
			return min
		}
		seen[cur] = len(path)
		path = append(path, cur)
		cur = next
	}
}

// Clone returns a mutable deep copy of the relation in O(rows): tuple
// storage is bulk-copied and the indexes are built in bulk, not by
// re-insertion. The clone shares the interner (interning is
// append-only, so sharing is safe and keeps term ids compatible across
// clones). Cloning a view copies the view's rows only.
func (r *Relation) Clone() *Relation {
	arity := r.schema.Arity()
	n := len(r.rows)
	out := newRelation(r.schema, r.in)
	out.rows = make([][]int32, n, headroom(n))
	out.tuples = make([][]datalog.Term, n, headroom(n))
	// Flat backing arrays: two allocations cover every tuple copy.
	flatIDs := make([]int32, n*arity)
	flatTerms := make([]datalog.Term, n*arity)
	for i := range n {
		ids := flatIDs[i*arity : (i+1)*arity : (i+1)*arity]
		copy(ids, r.rows[i])
		out.rows[i] = ids
		terms := flatTerms[i*arity : (i+1)*arity : (i+1)*arity]
		copy(terms, r.tuples[i])
		out.tuples[i] = terms
	}
	out.reindex()
	return out
}

// retire charges the whole relation to its newest view: the owner is
// dropping the live relation, so the views are its only holders.
func (r *Relation) retire() {
	r.chargeIndexes()
	r.charge(0, len(r.rows)*rowBytes(r.schema.Arity()))
}

// matchCandidates returns the indices of tuples that can possibly match
// the pattern atom under the substitution: it picks the ground argument
// position with the smallest posting list, or all tuples when no
// argument is ground.
func (r *Relation) matchCandidates(pattern datalog.Atom, s datalog.Subst) []int32 {
	best := -1
	var bestBucket []int32
	for pos, t := range pattern.Args {
		rt := s.Apply(t)
		if !rt.IsGround() {
			continue
		}
		var bucket []int32
		if id, known := r.in.Lookup(rt); known {
			bucket = r.postings(pos, id)
		}
		if best == -1 || len(bucket) < len(bestBucket) {
			best, bestBucket = pos, bucket
		}
	}
	if best == -1 {
		all := make([]int32, len(r.rows))
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	return bestBucket
}
