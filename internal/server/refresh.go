package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/persist"
	"repro/mdqa"
)

// Source refresh: POST .../sessions/{id}/refresh re-polls the live
// sources bound to a session's context and folds tuple-level changes
// into the running assessment, and Server.RefreshLoop does the same on
// a timer for every resident session of a sourced context.

// handleRefresh serves POST /v1/contexts/{name}/sessions/{id}/refresh.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sess, err := s.lookup(r)
	if err != nil {
		s.fail(w, r.PathValue("name"), err)
		return
	}
	sess.touch()
	res, err := s.refreshSession(r.Context(), sess, true)
	if err != nil {
		s.fail(w, sess.lc.name, err)
		return
	}
	s.met.observe(sess.lc.name, "refresh", time.Since(start))
	s.enforceResident(sess)
	writeJSON(w, http.StatusOK, refreshResponse(sess, res))
}

// refreshSession runs one Session.Refresh under the session's writer
// lock and makes the outcome durable. revive controls whether an
// evicted session is loaded back from disk (the HTTP handler revives;
// the background loop skips — polling must not defeat MaxResident).
//
// Durability: an additions-only refresh appends its delta to the WAL
// like an apply batch (replay is idempotent, and Session.Apply keeps
// source relations out of the measure base). A rebuild cannot be
// expressed as a WAL batch — removals have no log form — so the
// refresh rotates the segment and writes a synchronous snapshot of the
// rebuilt state. If a snapshot is already in flight the write is
// skipped: a crash before the next snapshot then recovers pre-refresh
// state, and the following refresh re-fetches and reconverges (source
// state is external and re-fetchable by definition).
func (s *Server) refreshSession(ctx context.Context, sess *session, revive bool) (*mdqa.RefreshResult, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	var ms *mdqa.Session
	var err error
	if revive {
		ms, err = s.residentLocked(ctx, sess)
		if err != nil {
			return nil, err
		}
	} else {
		if sess.closed || sess.s == nil {
			return nil, &notFoundError{kind: "session", name: sess.id}
		}
		ms = sess.s
	}
	res, err := ms.Refresh(ctx)
	if err != nil {
		s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.refreshErrors++ })
		return nil, err
	}
	s.met.with(sess.lc.name, func(cm *contextMetrics) {
		cm.refreshesTotal++
		if res.Rebuilt {
			cm.refreshRebuilds++
		}
	})
	if !res.Changed {
		return res, nil
	}
	rounds := ms.ChaseRounds()
	delta := rounds - sess.lastRounds
	sess.lastRounds = rounds
	s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.chaseRounds += int64(delta) })
	if sess.log == nil {
		return res, nil
	}
	if !res.Rebuilt && len(res.Delta) > 0 {
		if _, err := sess.log.Append(res.Delta); err != nil {
			// The in-memory state already moved; surface the append
			// failure so the operator knows durability lags. The next
			// successful snapshot covers the gap.
			s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.errorsTotal++ })
			return res, nil
		}
		s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.walAppends++ })
		return res, nil
	}
	// Rebuild: removals have no WAL form, so the batch that would carry
	// them is an empty marker — it keeps the log's sequence in lockstep
	// with the version the rebuild recorded (version seq == WAL seq is
	// the time-travel invariant), and replaying it is a no-op under set
	// semantics. Then rotate and snapshot synchronously (still under
	// sess.mu — refresh is rare and the export is a cheap snapshot).
	if _, err := sess.log.Append(nil); err != nil {
		s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.errorsTotal++ })
		return res, nil
	}
	if sess.snapshotting {
		return res, nil
	}
	covered, err := sess.log.Rotate()
	if err != nil {
		s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.errorsTotal++ })
		return res, nil
	}
	meta := persist.Meta{
		Context: sess.lc.name, Session: sess.id,
		Seq: covered, Applies: int(sess.applies), Created: timestamp(),
	}
	if err := sess.log.WriteSnapshot(meta, ms.ExportState()); err != nil {
		s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.errorsTotal++ })
		return res, nil
	}
	s.met.with(sess.lc.name, func(cm *contextMetrics) { cm.snapshotsWritten++ })
	return res, nil
}

// refreshResponse renders a refresh outcome on the wire.
func refreshResponse(sess *session, res *mdqa.RefreshResult) RefreshResponse {
	out := RefreshResponse{
		ID:      sess.id,
		Context: sess.lc.name,
		Changed: res.Changed,
		Rebuilt: res.Rebuilt,
		Sources: []RefreshSourceInfo{},
	}
	for _, sr := range res.Sources {
		out.Sources = append(out.Sources, RefreshSourceInfo{
			Name:       sr.Name,
			Relation:   sr.Relation,
			OldVersion: sr.OldVersion,
			Version:    sr.Version,
			Added:      sr.Added,
			Removed:    sr.Removed,
		})
	}
	if res.Apply != nil {
		out.Inserted = res.Apply.Inserted
		out.ChaseRows = res.Apply.ChaseRows
		out.Derived = res.Apply.Derived
	}
	return out
}

// sourced reports whether a context has live source bindings.
func (lc *loadedContext) sourced() bool { return len(lc.qc.SourceNames()) > 0 }

// RefreshLoop re-polls the sources of every resident session of every
// sourced context once per interval, until ctx is cancelled. Evicted
// sessions are skipped (they re-resolve their sources when revived);
// fetch failures are counted and the session left as it was. Run it in
// its own goroutine next to the HTTP server.
func (s *Server) RefreshLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.refreshAll(ctx)
		}
	}
}

// refreshAll runs one background poll round.
func (s *Server) refreshAll(ctx context.Context) {
	s.mu.Lock()
	var targets []*session
	for _, sess := range s.sessions {
		if sess.lc.sourced() && sess.isResident.Load() {
			targets = append(targets, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range targets {
		start := time.Now()
		if _, err := s.refreshSession(ctx, sess, false); err != nil {
			continue // counted inside refreshSession; session unchanged
		}
		s.met.observe(sess.lc.name, "refresh", time.Since(start))
	}
}
