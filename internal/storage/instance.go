package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"

	"repro/internal/datalog"
)

// Instance is a database instance: a collection of relations by name.
// Relations are created explicitly (with attribute names) or implicitly
// on first insert (with synthesized attribute names). All relations of
// an instance share one term interner, so interned rows and compiled
// join plans are valid across the whole instance (and across clones,
// which share the interner too).
type Instance struct {
	relations map[string]*Relation
	order     []string // creation order, for deterministic iteration
	in        *datalog.Interner
	// frozen marks an immutable snapshot (see Snapshot): relation
	// creation and every tuple mutation fail.
	frozen bool
	// overhead is a snapshot's own memory: its forked interner and
	// relation headers; costs are its relations' charge counters (see
	// RetainedBytes).
	overhead int64
	costs    []*atomic.Int64
}

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{relations: map[string]*Relation{}, in: datalog.NewInterner()}
}

// NewInstanceWith returns an empty instance over the given interner.
// The persistence layer uses it to materialize decoded snapshots
// against a fork of a live prepared base, so restored rows keep the
// exact ids the compiled plans were built against.
func NewInstanceWith(in *datalog.Interner) *Instance {
	return &Instance{relations: map[string]*Relation{}, in: in}
}

// Interner returns the instance's shared term interner.
func (db *Instance) Interner() *datalog.Interner { return db.in }

// CreateRelation registers an empty relation. It errors if the name is
// taken with a different schema.
func (db *Instance) CreateRelation(name string, attrs ...string) (*Relation, error) {
	if rel, ok := db.relations[name]; ok {
		if rel.Schema().Arity() != len(attrs) {
			return nil, fmt.Errorf("storage: relation %s already exists with arity %d", name, rel.Schema().Arity())
		}
		return rel, nil
	}
	if db.frozen {
		return nil, fmt.Errorf("storage: cannot create relation %s in a frozen snapshot", name)
	}
	rel := newRelation(Schema{Name: name, Attrs: attrs}, db.in)
	db.relations[name] = rel
	db.order = append(db.order, name)
	return rel, nil
}

// Relation returns the named relation, or nil if absent.
func (db *Instance) Relation(name string) *Relation { return db.relations[name] }

// RelationNames returns the relation names in creation order.
func (db *Instance) RelationNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// ensure returns the relation, creating it with synthetic attribute
// names a0..aN-1 if needed.
func (db *Instance) ensure(name string, arity int) (*Relation, error) {
	if rel, ok := db.relations[name]; ok {
		if rel.Schema().Arity() != arity {
			return nil, fmt.Errorf("storage: relation %s has arity %d, got tuple of arity %d", name, rel.Schema().Arity(), arity)
		}
		return rel, nil
	}
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	rel, err := db.CreateRelation(name, attrs...)
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// Insert adds a ground tuple to the named relation, creating the
// relation if necessary. It reports whether the tuple was new.
func (db *Instance) Insert(name string, tuple ...datalog.Term) (bool, error) {
	rel, err := db.ensure(name, len(tuple))
	if err != nil {
		return false, err
	}
	return rel.Insert(tuple)
}

// InsertAtom adds a ground atom as a tuple.
func (db *Instance) InsertAtom(a datalog.Atom) (bool, error) {
	if !a.IsGround() {
		return false, fmt.Errorf("storage: atom %s is not ground", a)
	}
	return db.Insert(a.Pred, a.Args...)
}

// MustInsert inserts and panics on error; for test and example setup
// where schemas are static.
func (db *Instance) MustInsert(name string, tuple ...datalog.Term) {
	if _, err := db.Insert(name, tuple...); err != nil {
		panic(err)
	}
}

// ContainsAtom reports whether the ground atom is present.
func (db *Instance) ContainsAtom(a datalog.Atom) bool {
	rel := db.relations[a.Pred]
	if rel == nil {
		return false
	}
	return rel.Contains(a.Args)
}

// InsertRow adds a tuple of interned term ids to the named relation,
// creating the relation if necessary. The ids must come from this
// instance's interner; the slice is copied.
func (db *Instance) InsertRow(name string, ids []int32) (bool, error) {
	rel, err := db.ensure(name, len(ids))
	if err != nil {
		return false, err
	}
	return rel.InsertRow(ids)
}

// ContainsRow reports whether the named relation holds the row of
// interned term ids.
func (db *Instance) ContainsRow(name string, ids []int32) bool {
	rel := db.relations[name]
	if rel == nil {
		return false
	}
	return rel.ContainsRow(ids)
}

// DeleteAtom removes the ground atom if present.
func (db *Instance) DeleteAtom(a datalog.Atom) bool {
	rel := db.relations[a.Pred]
	if rel == nil {
		return false
	}
	return rel.Delete(a.Args)
}

// TotalTuples returns the number of tuples across all relations.
func (db *Instance) TotalTuples() int {
	n := 0
	for _, rel := range db.relations {
		n += rel.Len()
	}
	return n
}

// Clone returns a deep copy of the instance's data in O(rows): every
// relation is bulk-copied (see Relation.Clone). The term interner is
// shared with the parent — ids stay compatible with plans compiled
// against either — which means a clone and its parent (or two clones)
// must not be mutated from different goroutines without external
// synchronization, even though their tuple data is independent.
func (db *Instance) Clone() *Instance {
	out := &Instance{
		relations: make(map[string]*Relation, len(db.relations)),
		order:     append([]string(nil), db.order...),
		in:        db.in,
	}
	for _, name := range db.order {
		out.relations[name] = db.relations[name].Clone()
	}
	return out
}

// Snapshot returns a frozen, immutable view of the instance. Each
// relation of the view is a row watermark over the live relation's
// append-only storage (see Relation), so taking a snapshot is
// O(relations + interned terms), independent of the number of tuples,
// and the writes after it cost what they would without it. The
// snapshot gets a forked interner, so concurrent readers of the
// snapshot never race with a writer interning new terms into the live
// instance. A snapshot of a snapshot is the snapshot itself.
//
// Concurrency contract: Snapshot must be called from the (single)
// writer goroutine — or with the writer quiescent — after which the
// snapshot may be read freely from any number of goroutines while the
// writer keeps mutating the live instance.
func (db *Instance) Snapshot() *Instance {
	if db.frozen {
		return db
	}
	out := &Instance{
		relations: make(map[string]*Relation, len(db.relations)),
		order:     append([]string(nil), db.order...),
		in:        db.in.Fork(),
		frozen:    true,
	}
	out.overhead = int64(out.in.Len()) * forkedTermBytes
	out.costs = make([]*atomic.Int64, 0, len(db.order))
	for _, name := range db.order {
		live := db.relations[name]
		out.relations[name] = live.snapshot(out.in)
		out.costs = append(out.costs, live.newest)
		out.overhead += viewBytes(live.schema.Arity())
	}
	return out
}

// forkedTermBytes is the memory one interned term costs a forked
// interner: its slot in the term table plus its entry in the id map
// (the term's string data is shared, not copied).
const forkedTermBytes = 80

// viewBytes is the memory of one relation view of the given arity:
// the relation header, its copies of the index headers and
// statistics, its charge counter and its entries in the snapshot's
// relation map, order and cost lists.
func viewBytes(arity int) int64 {
	const entries = 96
	return int64(unsafe.Sizeof(Relation{})) + int64(arity)*(int64(unsafe.Sizeof(postingIndex{}))+16) + entries
}

// RetainedBytes reports the memory a snapshot keeps alive beyond the
// live instance it was taken from: its forked interner and relation
// headers, plus every array, table and posting list the writer has
// since replaced while this snapshot was the newest to hold it (see
// Relation.charge). Releasing snapshots oldest first, as the history
// ring does, frees about this much. It is 0 on a live instance, and
// it grows as the writer moves on.
func (db *Instance) RetainedBytes() int64 {
	if !db.frozen {
		return 0
	}
	b := db.overhead
	for _, c := range db.costs {
		b += c.Load()
	}
	return b
}

// Retire tells the instance's snapshots that the owner is dropping
// the live instance: every relation's full memory is charged to its
// newest snapshot, which from now on holds it alone (see
// RetainedBytes). Engines call it when they replace a live instance
// that snapshots may still hold.
func (db *Instance) Retire() {
	for _, rel := range db.relations {
		rel.retire()
	}
}

// Frozen reports whether the instance is an immutable snapshot.
func (db *Instance) Frozen() bool { return db.frozen }

// CloneDetached returns a deep copy with its own forked interner: the
// clone can intern new symbols (invented nulls, derived constants)
// without touching the parent's interner. The chase and eval engines
// use it for their output instances, so their inputs stay completely
// unmodified. Existing ids are preserved, so rows — and plans compiled
// against the clone — remain valid.
func (db *Instance) CloneDetached() *Instance {
	out := db.Clone()
	out.in = db.in.Fork()
	for _, rel := range out.relations {
		rel.in = out.in
	}
	return out
}

// ReplaceTerm rewrites old to new across all relations, returning the
// number of modified tuples. Used for EGD enforcement (null merging).
func (db *Instance) ReplaceTerm(old, new datalog.Term) int {
	return db.ReplaceTerms(map[datalog.Term]datalog.Term{old: new})
}

// ReplaceTerms applies a batch of term rewrites across all relations in
// one pass per relation (one index rebuild each), returning the number
// of modified tuples. The chase uses it to enforce a whole EGD merge
// cascade with a single rebuild.
func (db *Instance) ReplaceTerms(repl map[datalog.Term]datalog.Term) int {
	n := 0
	for _, rel := range db.relations {
		n += rel.ReplaceTerms(repl)
	}
	return n
}

// MatchAtom finds all extensions of s that map pattern into a fact of
// the instance, invoking fn for each; fn returning false stops the
// enumeration early. It reports whether enumeration ran to completion.
func (db *Instance) MatchAtom(pattern datalog.Atom, s datalog.Subst, fn func(datalog.Subst) bool) bool {
	rel := db.relations[pattern.Pred]
	if rel == nil || rel.Schema().Arity() != len(pattern.Args) {
		return true
	}
	for _, idx := range rel.matchCandidates(pattern, s) {
		fact := datalog.Atom{Pred: pattern.Pred, Args: rel.tuples[idx]}
		if ext, ok := datalog.Match(pattern, fact, s); ok {
			if !fn(ext) {
				return false
			}
		}
	}
	return true
}

// MatchConjunction enumerates the homomorphisms of the positive
// conjunction body into the instance, extending s. Atoms are matched in
// a greedy order: at each step the atom with the most arguments already
// ground under the current substitution is chosen, which lets the
// per-position indexes prune effectively. fn returning false stops
// enumeration; the return value reports whether enumeration completed.
func (db *Instance) MatchConjunction(body []datalog.Atom, s datalog.Subst, fn func(datalog.Subst) bool) bool {
	remaining := make([]datalog.Atom, len(body))
	copy(remaining, body)
	return db.matchRest(remaining, s, fn)
}

func (db *Instance) matchRest(remaining []datalog.Atom, s datalog.Subst, fn func(datalog.Subst) bool) bool {
	if len(remaining) == 0 {
		return fn(s)
	}
	// Pick the atom with the highest number of ground arguments under s.
	best, bestScore, bestSize := 0, -1, 0
	for i, a := range remaining {
		score := 0
		for _, t := range a.Args {
			if s.Apply(t).IsGround() {
				score++
			}
		}
		size := 0
		if rel := db.relations[a.Pred]; rel != nil {
			size = rel.Len()
		}
		// Prefer smaller relations on ties to shrink the branching early.
		if score > bestScore || (score == bestScore && size < bestSize) {
			best, bestScore, bestSize = i, score, size
		}
	}
	chosen := remaining[best]
	rest := make([]datalog.Atom, 0, len(remaining)-1)
	rest = append(rest, remaining[:best]...)
	rest = append(rest, remaining[best+1:]...)
	return db.MatchAtom(chosen, s, func(ext datalog.Subst) bool {
		return db.matchRest(rest, ext, fn)
	})
}

// HasMatch reports whether the conjunction has at least one
// homomorphism into the instance extending s.
func (db *Instance) HasMatch(body []datalog.Atom, s datalog.Subst) bool {
	found := false
	db.MatchConjunction(body, s, func(datalog.Subst) bool {
		found = true
		return false
	})
	return found
}

// Merge copies every tuple of src into dst, creating relations as
// needed (attribute names are taken from src when the relation is
// new). It errors on arity conflicts.
func Merge(dst, src *Instance) error {
	for _, name := range src.RelationNames() {
		rel := src.Relation(name)
		if _, err := dst.CreateRelation(name, rel.Schema().Attrs...); err != nil {
			return err
		}
		for _, tup := range rel.Tuples() {
			if _, err := dst.Insert(name, tup...); err != nil {
				return err
			}
		}
	}
	return nil
}

// Diff returns the tuples of db not present in other, as ground atoms,
// across all relations of db.
func (db *Instance) Diff(other *Instance) []datalog.Atom {
	var out []datalog.Atom
	for _, name := range db.order {
		rel := db.relations[name]
		orel := other.relations[name]
		for _, tup := range rel.Tuples() {
			if orel == nil || !orel.Contains(tup) {
				out = append(out, datalog.Atom{Pred: name, Args: datalog.CloneTerms(tup)})
			}
		}
	}
	return out
}

// Equal reports whether both instances hold exactly the same tuples.
func (db *Instance) Equal(other *Instance) bool {
	return len(db.Diff(other)) == 0 && len(other.Diff(db)) == 0
}

// String renders every relation as a formatted table, sorted by
// relation name.
func (db *Instance) String() string {
	names := make([]string, len(db.order))
	copy(names, db.order)
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(FormatRelation(db.relations[name]))
		b.WriteByte('\n')
	}
	return b.String()
}
