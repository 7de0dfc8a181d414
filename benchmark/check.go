package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/datalog"
	"repro/mdqa"
)

// reference is the in-process oracle: the same .mdq context the shards
// serve, assessed by the library without history.
type reference struct {
	file *mdqa.File
	prep *mdqa.Prepared
	scan *mdqa.Query
}

func newReference(ctx context.Context, src string) (*reference, error) {
	f, err := mdqa.ParseSource(src)
	if err != nil {
		return nil, err
	}
	c, err := mdqa.NewContextFromFile(f, mdqa.WithParallelism(runtime.NumCPU()), mdqa.WithHistoryDepth(-1))
	if err != nil {
		return nil, err
	}
	prep, err := c.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	scan, err := mdqa.ParseQuery(scanQuery)
	if err != nil {
		return nil, err
	}
	return &reference{file: f, prep: prep, scan: scan}, nil
}

func (ref *reference) newSession(ctx context.Context) (*mdqa.Session, error) {
	return ref.prep.NewSession(ctx, mdqa.InputInstance(ref.file))
}

// scanDigest evaluates the clean scan on a session's current state.
func (ref *reference) scanDigest(s *mdqa.Session) (uint64, error) {
	var rows [][]string
	for a, err := range s.Snapshot().CleanAnswers(ref.scan) {
		if err != nil {
			return 0, err
		}
		rows = append(rows, termNames(a.Terms))
	}
	return digest(rows), nil
}

func termNames(ts []datalog.Term) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// checkObservations verifies serve-read's answer sets: every as-of
// scan, and every live scan whose version was known, must equal the
// reference session fed the same ticks up to that version; an as-of
// scan must also equal any live scan captured at that version. It
// returns how many as-of scans matched a live capture.
func checkObservations(ctx context.Context, ref *reference, r *runner, obs []observation) (int, []string) {
	var errs []string
	bySession := map[int][]observation{}
	for _, o := range obs {
		bySession[o.session] = append(bySession[o.session], o)
	}
	matchedLive := 0
	for i, s := range r.sessions {
		list := bySession[i]
		if len(list) == 0 {
			continue
		}
		if s.broken {
			errs = append(errs, fmt.Sprintf("session %s: a failed write left its versions unknown", s.id))
			continue
		}
		sort.SliceStable(list, func(a, b int) bool { return list[a].version < list[b].version })
		rs, err := ref.newSession(ctx)
		if err != nil {
			return 0, append(errs, err.Error())
		}
		live := map[int]uint64{}
		at := 0
		var want uint64
		for k, o := range list {
			if o.version > len(s.ticks) {
				errs = append(errs, fmt.Sprintf("session %s: observed version %d beyond the %d acknowledged", s.id, o.version, len(s.ticks)))
				continue
			}
			if k == 0 || o.version != list[k-1].version {
				for ; at < o.version; at++ {
					if _, err := rs.Apply(ctx, r.tick(s.ticks[at])); err != nil {
						return 0, append(errs, err.Error())
					}
				}
				if want, err = ref.scanDigest(rs); err != nil {
					return 0, append(errs, err.Error())
				}
			}
			kind := "live"
			if o.asOf {
				kind = "as-of"
			}
			if o.digest != want {
				errs = append(errs, fmt.Sprintf("session %s: %s scan at version %d differs from the reference", s.id, kind, o.version))
			}
			if !o.asOf {
				live[o.version] = o.digest
			}
		}
		for _, o := range list {
			if d, ok := live[o.version]; o.asOf && ok {
				if d != o.digest {
					errs = append(errs, fmt.Sprintf("session %s: as-of scan at version %d differs from the live scan", s.id, o.version))
				} else {
					matchedLive++
				}
			}
		}
	}
	return matchedLive, errs
}

// checkApplies verifies, without reviving any session, that each
// shard counts every acknowledged batch of its sessions.
func checkApplies(ctx context.Context, r *runner) []string {
	var errs []string
	for _, s := range r.sessions {
		var info struct {
			Applies int `json:"applies"`
		}
		if err := r.c.getJSON(ctx, "/v1/contexts/gen/sessions/"+s.id, &info); err != nil {
			errs = append(errs, fmt.Sprintf("session %s info: %v", s.id, err))
		} else if info.Applies != len(s.ticks) {
			errs = append(errs, fmt.Sprintf("session %s: shard counts %d batches, %d were acknowledged", s.id, info.Applies, len(s.ticks)))
		}
	}
	return errs
}

// assessed is the checked part of one session's assessment.
type assessed struct {
	clean                          uint64 // digest of the Measurements_q tuples
	original, quality, intersected int
}

// expectAssessments assesses, for every session, a reference session
// fed every acknowledged tick.
func expectAssessments(ctx context.Context, ref *reference, r *runner) ([]assessed, error) {
	out := make([]assessed, len(r.sessions))
	for i, s := range r.sessions {
		rs, err := ref.newSession(ctx)
		if err != nil {
			return nil, err
		}
		var delta []datalog.Atom
		for _, t := range s.ticks {
			delta = append(delta, r.tick(t)...)
		}
		if _, err := rs.Apply(ctx, delta); err != nil {
			return nil, err
		}
		a, err := rs.Assess(ctx)
		if err != nil {
			return nil, err
		}
		rel, err := a.Version("Measurements")
		if err != nil {
			return nil, err
		}
		var tuples [][]string
		for _, t := range rel.SortedTuples() {
			tuples = append(tuples, termNames(t))
		}
		m := a.Measures()["Measurements"]
		out[i] = assessed{digest(tuples), m.Original, m.Quality, m.Intersection}
	}
	return out, nil
}

// checkAssessments verifies serve-ingest's sessions: each session's
// assessment, read through the router, must equal the reference's.
func checkAssessments(ctx context.Context, r *runner, want []assessed, when string) []string {
	var errs []string
	for i, s := range r.sessions {
		a, err := r.c.sessionAssessment(ctx, s.id)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: session %s assessment: %v", when, s.id, err))
			continue
		}
		m := a.Measures["Measurements"]
		got := assessed{digest(a.Versions["Measurements"].Tuples), m.Original, m.Quality, m.Intersection}
		if got != want[i] {
			errs = append(errs, fmt.Sprintf("%s: session %s: assessment %+v differs from the reference %+v", when, s.id, got, want[i]))
		}
	}
	return errs
}
