package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one op share its id;
// parent is the enclosing span (-1 for an op's root).
type span struct {
	name       string
	op         int
	parent     int32
	start, end time.Duration // offsets from the tracer's start
}

// tracer keeps spans in memory for the whole run; nothing is written
// until the run ends. A disabled tracer records nothing, so the same
// code path runs untraced.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, op int, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.t0)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = time.Since(t.t0)
	}
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			ks, ke := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if ke <= ks {
				continue
			}
			if ks > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls int
	total time.Duration // sum of durations
}

func (s layerStat) mean() time.Duration {
	if s.calls == 0 {
		return 0
	}
	return s.total / time.Duration(s.calls)
}

// byName sums spans by name.
func byName(spans []span) map[string]layerStat {
	out := map[string]layerStat{}
	for _, s := range spans {
		st := out[s.name]
		st.calls++
		st.total += s.end - s.start
		out[s.name] = st
	}
	return out
}

// rootOf walks up to a span's root.
func rootOf(spans []span, i int) int {
	for spans[i].parent >= 0 {
		i = int(spans[i].parent)
	}
	return i
}

// writeSelfTable prints, for each op type (root span name), the self
// time of every layer under it and the root's own self time as the
// unattributed remainder, each as a share of the op type's total.
func writeSelfTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type row struct {
		calls int
		self  time.Duration
	}
	tables := map[string]map[string]*row{}
	totals := map[string]time.Duration{}
	ops := map[string]int{}
	for i, s := range spans {
		root := spans[rootOf(spans, i)].name
		if tables[root] == nil {
			tables[root] = map[string]*row{}
		}
		name := s.name
		if s.parent < 0 {
			name = "(unattributed)"
			totals[root] += s.end - s.start
			ops[root]++
		}
		r := tables[root][name]
		if r == nil {
			r = &row{}
			tables[root][name] = r
		}
		r.calls++
		r.self += self[i]
	}
	roots := make([]string, 0, len(tables))
	for r := range tables {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, root := range roots {
		fmt.Fprintf(w, "# self time under %s: %d ops, %.3f ms total\n", root, ops[root], millis(totals[root]))
		names := make([]string, 0, len(tables[root]))
		for n := range tables[root] {
			names = append(names, n)
		}
		sort.Slice(names, func(a, b int) bool { return tables[root][names[a]].self > tables[root][names[b]].self })
		for _, n := range names {
			r := tables[root][n]
			share := 0.0
			if totals[root] > 0 {
				share = 100 * float64(r.self) / float64(totals[root])
			}
			fmt.Fprintf(w, "#   %-26s %8d calls %12.3f ms self %6.1f%%\n", n, r.calls, millis(r.self), share)
		}
	}
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes every span as one tab-separated line: op id, span
// id, parent, name, start and end in ns from the run's start.
func writeSpans(w io.Writer, spans []span) error {
	var b strings.Builder
	b.WriteString("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
	for i, s := range spans {
		fmt.Fprintf(&b, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	_, err := io.WriteString(w, b.String())
	return err
}
