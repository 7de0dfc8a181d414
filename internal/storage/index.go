package storage

import (
	"math/bits"
	"sync/atomic"
)

// The index structures below are shared between a live relation and
// the frozen views taken of it (see Relation.snapshot). The single
// writer only ever appends to them, so a view can keep reading them
// while the writer grows the relation: a view reads the prefix of each
// structure its row watermark covers and ignores every entry naming a
// row at or past that watermark. A structure the writer has to replace
// (a full table or list) is rebuilt in fresh memory and the old one is
// left intact to the views still holding it.

// rowTable is the dedup index: an open-addressed hash table over row
// indexes with linear probing. A slot holds row index + 1 (0 = empty).
// The writer only fills empty slots, publishing each with an atomic
// store, so the probe sequence of a row never changes once the row is
// in: a view keeps finding exactly its own rows while the writer
// inserts, skipping slots that name rows past its watermark. The load
// factor stays at or below 1/2, so probes are short and every probe
// sequence ends at an empty slot. Growth builds a table of twice the
// size in fresh memory; the old table, complete up to the growth
// point, stays with the views that hold it.
type rowTable struct {
	slots []atomic.Int32
	shift uint   // 64 - log2(len(slots)), for Fibonacci hashing
	gen   uint32 // the relation's snapshot count when the table was built
}

// minTableSlots is the size of an empty relation's table.
const minTableSlots = 16

// newRowTable returns an empty table with room for rows rows at load
// factor ≤ 1/2.
func newRowTable(rows int, gen uint32) *rowTable {
	size := minTableSlots
	for size < 2*rows {
		size <<= 1
	}
	return &rowTable{slots: make([]atomic.Int32, size), shift: uint(64 - bits.TrailingZeros(uint(size))), gen: gen}
}

// home is the first slot of the probe sequence for row hash h.
func (t *rowTable) home(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> t.shift) }

// find returns the index of the row equal to ids among rows (the
// caller's watermark prefix), or -1.
func (t *rowTable) find(rows [][]int32, ids []int32, h uint64) int {
	mask := len(t.slots) - 1
	for i := t.home(h); ; i = (i + 1) & mask {
		v := t.slots[i].Load()
		if v == 0 {
			return -1
		}
		if idx := int(v - 1); idx < len(rows) && rowsEqual(rows[idx], ids) {
			return idx
		}
	}
}

// put publishes row index idx (with row hash h) in the first empty
// slot of its probe sequence. The caller keeps the load factor ≤ 1/2.
func (t *rowTable) put(h uint64, idx int) {
	mask := len(t.slots) - 1
	i := t.home(h)
	for t.slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.slots[i].Store(int32(idx + 1))
}

// bytes is the table's memory.
func (t *rowTable) bytes() int { return 4 * len(t.slots) }

// postingList holds the ascending indexes of the rows that carry one
// term at one position. ids has a fixed capacity and entries [0, n)
// are published: the writer stores the entry and then n, so a reader
// that loads n sees every entry below it. A full list migrates to a
// new list of twice the capacity that replaces it in its index slot
// (an atomic pointer store); the old list stays intact for the views
// that still hold it. Ascending order makes a view's share of a list a
// prefix, and keeps join emission order the order of row insertion.
type postingList struct {
	ids []int32
	n   atomic.Int32
	gen uint32 // the relation's snapshot count when the list was built
}

// bytes is the list's memory: its header and its entry array.
func (pl *postingList) bytes() int { return postingListHeader + 4*len(pl.ids) }

// postingListHeader is the size of a postingList header.
const postingListHeader = 32

// postingIndex is one position's index: term id → posting list. Term
// ids are dense interner ids, so the index is an array; the writer
// grows it by copying the list pointers into an array of twice the
// size, leaving the old array to the views that hold it.
type postingIndex struct {
	lists []atomic.Pointer[postingList]
	gen   uint32 // the relation's snapshot count when lists was allocated
}

// minPostingCap is a new posting list's capacity.
const minPostingCap = 4

// postingAlloc carves posting-list headers and entry arrays out of
// chunks, so an insert storm costs one allocation per chunk instead of
// two per new or migrated list. The zero value is ready to use.
type postingAlloc struct {
	lists []postingList
	ids   []int32
}

// postingChunk is the entry-chunk size, in entries.
const postingChunk = 1024

// list returns an empty list with room for capacity entries.
func (a *postingAlloc) list(capacity int, gen uint32) *postingList {
	if len(a.lists) == cap(a.lists) {
		a.lists = make([]postingList, 0, 64)
	}
	a.lists = a.lists[:len(a.lists)+1]
	pl := &a.lists[len(a.lists)-1]
	pl.gen = gen
	if capacity > postingChunk/4 {
		// Long lists get arrays of their own rather than leaving the
		// rest of the current chunk unused.
		pl.ids = make([]int32, capacity)
		return pl
	}
	if cap(a.ids)-len(a.ids) < capacity {
		a.ids = make([]int32, 0, postingChunk)
	}
	start := len(a.ids)
	a.ids = a.ids[:start+capacity]
	pl.ids = a.ids[start : start+capacity : start+capacity]
	return pl
}
