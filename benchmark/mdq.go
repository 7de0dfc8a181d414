package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datalog"
	"repro/internal/gen"
)

// contextSource renders a generated quality workload as .mdq text: the
// form mdserve loads with -context. The schema part mirrors
// gen.NewQualityWorkload (a Site dimension Ward→Unit with GoodUnit and
// BadUnit, a T dimension Time→Day, PatientWard rolled up to
// PatientUnit, and the guideline quality rule behind Measurements_q);
// the data part — members, rollups, ward assignments and the input
// instance — is read off the generated objects, so the served context
// and the in-process reference assess the same data. newContext
// checks the rendering against gen's expected clean count.
func contextSource(wl *gen.QualityWorkload) string {
	var b strings.Builder
	o := wl.Ontology
	site, tdim := o.Dimension("Site"), o.Dimension("T")

	b.WriteString("dimension Site {\n  category Ward; category Unit;\n  Ward -> Unit;\n")
	writeMembers(&b, "Unit", site.MembersOf("Unit"))
	writeMembers(&b, "Ward", site.MembersOf("Ward"))
	for _, w := range sorted(site.MembersOf("Ward")) {
		for _, u := range site.ParentsOf(w) {
			fmt.Fprintf(&b, "  rollup %s -> %s;\n", quote(w), quote(u))
		}
	}
	b.WriteString("}\n\ndimension T {\n  category Time; category Day;\n  Time -> Day;\n")
	writeMembers(&b, "Day", tdim.MembersOf("Day"))
	writeMembers(&b, "Time", tdim.MembersOf("Time"))
	for _, t := range sorted(tdim.MembersOf("Time")) {
		for _, d := range tdim.ParentsOf(t) {
			fmt.Fprintf(&b, "  rollup %s -> %s;\n", quote(t), quote(d))
		}
	}
	b.WriteString("}\n\nrelation PatientWard(Ward: Site.Ward, Day: T.Day; Patient) {\n")
	writeTuples(&b, o.Data().Relation("PatientWard").SortedTuples())
	b.WriteString("}\n\nrelation PatientUnit(Unit: Site.Unit, Day: T.Day; Patient)\n\n")
	b.WriteString("rule up: PatientUnit(u, d; p) <- PatientWard(w, d; p), UnitWard(u, w).\n\n")
	b.WriteString("input Measurements(Time, Patient, Value) {\n")
	writeTuples(&b, wl.Instance.Relation("Measurements").SortedTuples())
	b.WriteString("}\n\nquality guideline: RightTherm(t, p) <- PatientUnit(GoodUnit, d, p), DayTime(d, t).\n\n")
	b.WriteString("version Measurements_q of Measurements:\n  Measurements_q(t, p, v) <- Measurements(t, p, v), RightTherm(t, p).\n")
	return b.String()
}

func writeMembers(b *strings.Builder, category string, members []string) {
	ms := sorted(members)
	for i := range ms {
		ms[i] = quote(ms[i])
	}
	fmt.Fprintf(b, "  member %s in %s;\n", strings.Join(ms, ", "), category)
}

func writeTuples(b *strings.Builder, tuples [][]datalog.Term) {
	for _, tup := range tuples {
		vals := make([]string, len(tup))
		for i, t := range tup {
			vals[i] = quote(t.Name)
		}
		fmt.Fprintf(b, "  (%s);\n", strings.Join(vals, ", "))
	}
}

// quote renders a constant as a .mdq string literal, so names with
// dashes or dots and lowercase names (which would read as variables)
// parse back to the same constant.
func quote(s string) string { return `"` + s + `"` }

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}
