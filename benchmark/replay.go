package main

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/datalog"
	"repro/internal/history"
	"repro/internal/load"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/mdqa"
)

// The traced run replays the workload's seeded op stream in-process.
// Each op runs the path the server would run for it, calling each
// layer's exported function with a span around the call: the query
// parser, the plan cache and answer evaluation, NDJSON encode and
// decode, the history view, the session apply, the WAL and the
// snapshot store. Two shadow paths run beside every write, outside the
// op's own time: the same batch on a session without history (the
// history cost is the difference) and on a session held as its chase
// and eval layers (their split). The stream is replayed twice, once
// untraced and once traced, and the difference in op time is the
// tracing overhead.

// replaySession is one session of the replay.
type replaySession struct {
	id      string
	primary *mdqa.Session // default history, as the server runs it; nil while evicted
	noHist  *mdqa.Session // shadow without history
	// twinSnap marks that the primary's live state was snapshotted (a
	// live read, or an export for a snapshot file) since the last
	// write. A server without history takes the same snapshot, and the
	// next write pays its copy-on-write clone, so the shadow takes it
	// too: the apply-time difference then holds only the history
	// ring's cost.
	twinSnap bool
	lay      *layered      // shadow held as its chase and eval layers
	ring     *history.Ring // fed the primary's versions, for RetainedBytes
	version  int
	live     map[int]uint64 // scan digest per version, for the as-of check
	log      *persist.SessionLog
	walSize  *wal.Writer // scratch log of the same batches, for bytes per user byte
	lru      *list.Element
}

// replay holds one pass over the op stream.
type replay struct {
	w      workload
	in     *inputs
	t      *tracer
	file   *mdqa.File
	hist   *mdqa.Prepared
	noHist *mdqa.Prepared
	lp     *layerPrep
	cache  *mdqa.PlanCache
	store  *persist.Store
	dir    string

	sessions []*replaySession
	lru      *list.List // resident sessions, most recent at the front

	svc       time.Duration // summed op service time
	lag       load.Histogram
	applies   int
	rows      int
	derived   int
	rebuilt   int
	reads     int
	answers   int
	userBytes int64
	fsyncs    int64
	attempted int64
	failed    int64
	checkErrs []string
	recover   time.Duration
}

func newReplay(ctx context.Context, w workload, in *inputs, on bool, dir string) (*replay, error) {
	f, err := mdqa.ParseSource(in.source)
	if err != nil {
		return nil, err
	}
	width := runtime.NumCPU()
	prep := func(opts ...mdqa.Option) (*mdqa.Prepared, error) {
		c, err := mdqa.NewContextFromFile(f, append(opts, mdqa.WithParallelism(width))...)
		if err != nil {
			return nil, err
		}
		return c.Prepare(ctx)
	}
	r := &replay{w: w, in: in, t: newTracer(on), file: f, cache: mdqa.NewPlanCache(128), dir: dir, lru: list.New()}
	if r.hist, err = prep(); err != nil {
		return nil, err
	}
	if r.noHist, err = prep(mdqa.WithHistoryDepth(-1)); err != nil {
		return nil, err
	}
	if r.lp, err = newLayerPrep(f, width); err != nil {
		return nil, err
	}
	if w.Durable {
		mode, err := wal.ParseSyncMode(w.Fsync)
		if err != nil {
			return nil, err
		}
		r.store, err = persist.OpenStore(filepath.Join(dir, "data"), persist.Options{
			WAL:           wal.Options{Mode: mode, OnSync: func() { r.fsyncs++ }},
			RetainHistory: mdqa.DefaultHistoryDepth,
		})
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// setup opens and seeds the sessions, as the end-to-end run does.
func (r *replay) setup(ctx context.Context) error {
	root := r.t.begin("setup", -1, -1)
	defer r.t.end(root)
	input := mdqa.InputInstance(r.file)
	for i := 0; i < r.w.Sessions; i++ {
		s := &replaySession{id: sessionID(i), live: map[int]uint64{}, ring: history.New(mdqa.DefaultHistoryDepth, 0)}
		sp := r.t.begin("engine.new_session", -1, root)
		var err error
		s.primary, err = r.hist.NewSession(ctx, input)
		r.t.end(sp)
		if err != nil {
			return err
		}
		if s.noHist, err = r.noHist.NewSession(ctx, input); err != nil {
			return err
		}
		if s.lay, err = r.lp.open(ctx, input, r.t, -1, root); err != nil {
			return err
		}
		r.record(s)
		if r.store != nil {
			if s.log, err = r.store.CreateSession("gen", s.id, persist.Meta{}, s.primary.ExportState()); err != nil {
				return err
			}
			s.twinSnap = true
			if s.walSize, err = wal.Create(filepath.Join(r.dir, "walsize-"+s.id+".log"), wal.Options{Mode: wal.SyncNone}); err != nil {
				return err
			}
		}
		r.sessions = append(r.sessions, s)
		if err := r.touch(ctx, s, -1, root); err != nil {
			return err
		}
		r.snapTwins()
		for tick := 0; tick < r.w.SeedTicks; tick++ {
			d, _ := r.in.stream.Tick(tick)
			after, err := r.write(ctx, s, applyBody(d), -1, root)
			if err == nil {
				err = after()
			}
			if err != nil {
				return err
			}
			if r.w.AsOfFrac > 0 {
				rows, err := drain(s.primary.Snapshot().CleanAnswersCached(mustQuery(scanQuery), r.cache))
				if err != nil {
					return err
				}
				s.live[s.version] = digest(rows)
				s.twinSnap = true
			}
			r.snapTwins()
		}
	}
	return nil
}

// record feeds the session's current state to its shadow ring, the
// way the session records a version after each apply.
func (r *replay) record(s *replaySession) {
	inst := s.primary.Snapshot().Instance()
	s.ring.Record(&history.Entry{Version: history.Version{Seq: s.ring.NextSeq(), Rows: inst.TotalTuples()}, Inst: inst})
}

// touch makes s resident (reviving it from its log) and evicts the
// least recently used sessions beyond the resident bound, as a durable
// server does. The replay is one process, so the bound is the shards'
// bounds summed.
func (r *replay) touch(ctx context.Context, s *replaySession, op int, parent int32) error {
	if r.store == nil {
		return nil
	}
	if s.primary == nil {
		sp := r.t.begin("persist.revive", op, parent)
		err := r.revive(ctx, s)
		r.t.end(sp)
		if err != nil {
			return err
		}
	}
	if s.lru != nil {
		r.lru.MoveToFront(s.lru)
	} else {
		s.lru = r.lru.PushFront(s)
	}
	for r.lru.Len() > r.w.MaxResident*numShards {
		victim := r.lru.Remove(r.lru.Back()).(*replaySession)
		victim.lru = nil
		victim.twinSnap = true
		sp := r.t.begin("persist.snapshot", op, parent)
		err := victim.log.WriteSnapshot(persist.Meta{Context: "gen", Session: victim.id, Seq: victim.log.Seq(), Applies: victim.version},
			victim.primary.ExportState())
		r.t.end(sp)
		if err != nil {
			return err
		}
		if err := victim.log.Close(); err != nil {
			return err
		}
		victim.primary, victim.log = nil, nil
	}
	return nil
}

// revive reopens an evicted session from its snapshot and WAL tail.
func (r *replay) revive(ctx context.Context, s *replaySession) error {
	log, ms, err := r.open(ctx, s.id)
	if err != nil {
		return err
	}
	s.primary, s.log = ms, log
	s.ring = history.New(mdqa.DefaultHistoryDepth, 0)
	r.record(s)
	return nil
}

// open restores a persisted session the way the server does.
func (r *replay) open(ctx context.Context, id string) (*persist.SessionLog, *mdqa.Session, error) {
	var batches []wal.Batch
	log, _, st, err := r.store.OpenSession("gen", id, r.hist.BaseInterner(), func(b wal.Batch) error {
		batches = append(batches, b)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ms, err := r.hist.RestoreSession(ctx, st)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	for _, b := range batches {
		if _, err := ms.Apply(ctx, b.Atoms); err != nil {
			log.Close()
			return nil, nil, err
		}
	}
	return log, ms, nil
}

// write runs one apply batch the way the server does: decode, apply,
// WAL append and any snapshot due. It returns the work that runs after
// the op's own time: the shadow ring's record, the scratch WAL, and
// the same batch on the history-less and the layered shadows.
func (r *replay) write(ctx context.Context, s *replaySession, body []byte, op int, parent int32) (func() error, error) {
	sp := r.t.begin("server.decode", op, parent)
	var req server.ApplyRequest
	err := json.Unmarshal(body, &req)
	atoms := make([]datalog.Atom, len(req.Atoms))
	for i, a := range req.Atoms {
		atoms[i] = a.Atom()
	}
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	if err := r.touch(ctx, s, op, parent); err != nil {
		return nil, err
	}
	sp = r.t.begin("session.apply", op, parent)
	res, err := s.primary.Apply(ctx, atoms)
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	s.version++
	if s.log != nil {
		sp = r.t.begin("wal.append", op, parent)
		_, err := s.log.Append(atoms)
		r.t.end(sp)
		if err != nil {
			return nil, err
		}
		if s.log.NeedSnapshot() {
			covered, err := s.log.Rotate()
			if err != nil {
				return nil, err
			}
			s.twinSnap = true
			sp = r.t.begin("persist.snapshot", op, parent)
			err = s.log.WriteSnapshot(persist.Meta{Context: "gen", Session: s.id, Seq: covered, Applies: s.version}, s.primary.ExportState())
			r.t.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	return func() error {
		r.applies++
		r.rows += res.ChaseRows
		r.derived += res.Derived
		if res.Rebuilt {
			r.rebuilt++
		}
		r.userBytes += int64(len(body))
		r.record(s)
		if s.walSize != nil {
			if err := s.walSize.Append(uint64(s.version), atoms); err != nil {
				return err
			}
		}
		shadow := parent
		if op >= 0 {
			shadow = r.t.begin("shadow.write", op, -1)
			defer r.t.end(shadow)
		}
		sp := r.t.begin("engine.apply", op, shadow)
		_, err := s.noHist.Apply(ctx, atoms)
		r.t.end(sp)
		if err != nil {
			return err
		}
		return s.lay.apply(ctx, atoms, r.t, op, shadow)
	}, nil
}

// applyBody is the NDJSON line a client sends for one batch.
func applyBody(atoms []datalog.Atom) []byte {
	req := server.ApplyRequest{Atoms: make([]server.WireAtom, len(atoms))}
	for i, a := range atoms {
		args := make([]string, len(a.Args))
		for j, t := range a.Args {
			args[j] = t.Name
		}
		req.Atoms[i] = server.WireAtom{Pred: a.Pred, Args: args}
	}
	data, _ := json.Marshal(req) // plain strings: cannot fail
	return append(data, '\n')
}

func mustQuery(src string) *mdqa.Query {
	q, err := mdqa.ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

func drain(seq iter.Seq2[mdqa.Answer, error]) ([][]string, error) {
	var rows [][]string
	for a, err := range seq {
		if err != nil {
			return nil, err
		}
		rows = append(rows, termNames(a.Terms))
	}
	return rows, nil
}

// encodeAnswers writes the NDJSON answer stream the server would send.
func encodeAnswers(w io.Writer, rows [][]string) {
	enc := json.NewEncoder(w)
	for _, row := range rows {
		_ = enc.Encode(struct {
			Answer []string `json:"answer"`
		}{row})
	}
	n := len(rows)
	_ = enc.Encode(struct {
		Count *int `json:"count"`
	}{&n})
}

// snapTwins takes the snapshots the history-less shadows owe (see
// replaySession.twinSnap), outside any op's time.
func (r *replay) snapTwins() {
	for _, s := range r.sessions {
		if s.twinSnap {
			s.noHist.Snapshot()
			s.twinSnap = false
		}
	}
}

// read runs one live or as-of read: parse, (view,) evaluate, encode.
// The returned check runs after the op's own time.
func (r *replay) read(ctx context.Context, o op, root int32) (func() error, error) {
	s := r.sessions[o.Session]
	sp := r.t.begin("parser.parse_query", o.ID, root)
	q, err := mdqa.ParseQuery(scanQuery)
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	if err := r.touch(ctx, s, o.ID, root); err != nil {
		return nil, err
	}
	snap, cache, version := s.primary.Snapshot(), r.cache, s.version
	if o.Kind == opAsOf {
		version = max(0, s.version-o.Back)
		sp = r.t.begin("history.asof_view", o.ID, root)
		snap, err = s.primary.View(mdqa.At(uint64(version)))
		r.t.end(sp)
		if err != nil {
			return nil, err
		}
		cache = nil // as the server does: historical views bypass the plan cache
	} else {
		s.twinSnap = true
	}
	sp = r.t.begin("eval.answers", o.ID, root)
	rows, err := drain(snap.CleanAnswersCached(q, cache))
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.t.begin("server.encode", o.ID, root)
	encodeAnswers(io.Discard, rows)
	r.t.end(sp)
	return func() error {
		r.reads++
		r.answers += len(rows)
		d := digest(rows)
		if want, ok := s.live[version]; ok && o.Kind == opAsOf && want != d {
			return fmt.Errorf("as-of scan of %s at version %d differs from the live scan", s.id, version)
		}
		if o.Kind == opRead {
			s.live[version] = d
		}
		return nil
	}, nil
}

// assess runs one one-shot assessment: decode the body, open a
// session, assemble the assessment. The returned work checks it and
// runs the layered shadow, after the op's own time.
func (r *replay) assess(ctx context.Context, o op, root int32) (func() error, error) {
	sp := r.t.begin("server.decode_instance", o.ID, root)
	var req server.AssessRequest
	err := json.Unmarshal(r.in.assessBody, &req)
	var inst *mdqa.Instance
	if err == nil {
		inst, err = req.Instance.Instance()
	}
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.t.begin("engine.new_session", o.ID, root)
	s, err := r.hist.NewSession(ctx, inst)
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.t.begin("quality.assemble", o.ID, root)
	a, err := s.Assess(ctx)
	r.t.end(sp)
	if err != nil {
		return nil, err
	}
	return func() error {
		if m := a.Measures()["Measurements"]; m.Quality != r.in.expectClean {
			return fmt.Errorf("clean %d, want %d", m.Quality, r.in.expectClean)
		}
		shadow := r.t.begin("shadow.assess", o.ID, -1)
		defer r.t.end(shadow)
		_, err := r.lp.open(ctx, inst, r.t, o.ID, shadow)
		return err
	}, nil
}

// exec runs one op under its root span, adds the root's time to the
// summed service time, then runs the op's after-work.
func (r *replay) exec(ctx context.Context, o op) {
	r.attempted++
	var body []byte
	if o.Kind == opWrite {
		d, _ := r.in.stream.Tick(o.Tick)
		body = applyBody(d) // the client's side of the request
	}
	start := time.Now()
	root := r.t.begin("op."+o.Kind.String(), o.ID, -1)
	var after func() error
	var err error
	switch o.Kind {
	case opWrite:
		after, err = r.write(ctx, r.sessions[o.Session], body, o.ID, root)
	case opAssess:
		after, err = r.assess(ctx, o, root)
	default:
		after, err = r.read(ctx, o, root)
	}
	r.t.end(root)
	r.svc += time.Since(start)
	if err == nil {
		err = after()
	}
	r.snapTwins()
	if err != nil {
		r.failed++
		r.checkErrs = append(r.checkErrs, fmt.Sprintf("op %d (%s): %v", o.ID, o.Kind, err))
	}
}

// run replays the stream: on its schedule for the open loop (one
// generator feeding one worker, so the state evolves in stream order
// and the generator's own lateness is measured apart from queueing),
// or back to back for the closed loop — for the run's duration, or
// exactly count ops when count > 0.
func (r *replay) run(ctx context.Context, count int64) {
	if !r.w.OpenLoop {
		start := time.Now()
		prev := start
		for i := 0; (count > 0 && int64(i) < count) || (count == 0 && time.Since(start) < r.in.duration); i++ {
			now := time.Now()
			r.lag.Observe(now.Sub(prev))
			r.exec(ctx, op{ID: i, Kind: opAssess})
			prev = time.Now()
		}
		return
	}
	queue := make(chan op, len(r.in.ops)) // never blocks the generator
	done := make(chan struct{})
	go func() {
		defer close(done)
		for o := range queue {
			r.exec(ctx, o)
		}
	}()
	start := time.Now()
	for _, o := range r.in.ops {
		due := start.Add(o.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.lag.Observe(time.Since(due))
		queue <- o
	}
	close(queue)
	<-done
}

// crashRecover drops every open log without a final snapshot, as a
// crash would, then reopens every session from disk; it checks each
// recovered assessment against the session without history.
func (r *replay) crashRecover(ctx context.Context) error {
	for _, s := range r.sessions {
		if s.log != nil {
			if err := s.log.Close(); err != nil {
				return err
			}
			s.log = nil
		}
	}
	start := time.Now()
	recovered := make([]*mdqa.Session, len(r.sessions))
	for i, s := range r.sessions {
		log, ms, err := r.open(ctx, s.id)
		if err != nil {
			return err
		}
		if err := log.Close(); err != nil {
			return err
		}
		recovered[i] = ms
	}
	r.recover = time.Since(start)
	for i, s := range r.sessions {
		got, err := recovered[i].Assess(ctx)
		if err != nil {
			return err
		}
		want, err := s.noHist.Assess(ctx)
		if err != nil {
			return err
		}
		if g, w := got.Measures()["Measurements"], want.Measures()["Measurements"]; g != w {
			r.checkErrs = append(r.checkErrs, fmt.Sprintf("session %s recovered with measures %+v, want %+v", s.id, g, w))
		}
	}
	return nil
}

// gcCPU reads the runtime's cumulative GC and busy CPU seconds; busy
// is the total available (GOMAXPROCS × wall time) less idle time, so
// an open loop's pacing does not dilute the GC share.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedHeap is the heap the default-history sessions hold beyond
// the same sessions without history: the primaries (and their rings)
// are dropped first, then the history-less twins of those that were
// resident.
func (r *replay) retainedHeap() float64 {
	h1 := heapAlloc()
	var resident []*replaySession
	for _, s := range r.sessions {
		if s.primary != nil {
			resident = append(resident, s)
		}
		s.primary, s.ring = nil, nil
	}
	h2 := heapAlloc()
	for _, s := range resident {
		s.noHist = nil
	}
	h3 := heapAlloc()
	return (float64(h1) - float64(h2)) - (float64(h2) - float64(h3))
}

// proxyCost reads session 0 through the router and straight from its
// owning shard in alternating order, and returns the median of the
// paired differences.
func proxyCost(ctx context.Context, w workload, in *inputs, bin, dir string) (time.Duration, error) {
	t, r, _, _, err := bootSeeded(ctx, w, in, bin, dir)
	if err != nil {
		return 0, err
	}
	defer t.stop()
	// Session 0 is placed on the first shard (see placeSessions).
	id := r.sessions[0].id
	direct := newClient(t.shards[0].addr, 1)
	via := newClient(t.router.addr, 1)
	timed := func(c client) (time.Duration, error) {
		start := time.Now()
		_, err := c.Answers(ctx, id, scanQuery, "clean")
		return time.Since(start), err
	}
	if _, err := timed(via); err != nil { // revive and warm both paths
		return 0, err
	}
	if _, err := timed(direct); err != nil {
		return 0, err
	}
	const pairs = 200
	diffs := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		first, second := via, direct
		if i%2 == 1 {
			first, second = direct, via
		}
		a, err := timed(first)
		if err != nil {
			return 0, err
		}
		b, err := timed(second)
		if err != nil {
			return 0, err
		}
		if i%2 == 1 {
			a, b = b, a
		}
		diffs = append(diffs, float64(a-b))
	}
	return time.Duration(median(diffs)), nil
}

// runTraced is the --trace 1 run.
func runTraced(ctx context.Context, w workload, in *inputs, bin, dir string) (*result, error) {
	var proxy time.Duration
	if w.OpenLoop {
		var err error
		if proxy, err = proxyCost(ctx, w, in, bin, filepath.Join(dir, "proxy")); err != nil {
			return nil, err
		}
	}
	pass := func(on bool, name string) (*replay, error) {
		pdir := filepath.Join(dir, name)
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return nil, err
		}
		r, err := newReplay(ctx, w, in, on, pdir)
		if err != nil {
			return nil, err
		}
		if w.OpenLoop {
			if err := r.setup(ctx); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	// Untraced pass: the same work with no spans recorded.
	plain, err := pass(false, "plain")
	if err != nil {
		return nil, err
	}
	plain.run(ctx, 0)
	plainSvc, plainOps := plain.svc, plain.attempted
	plain = nil
	runtime.GC()

	r, err := pass(true, "traced")
	if err != nil {
		return nil, err
	}
	hits0, misses0, _ := r.cache.Stats()
	gc0, cpu0 := gcCPU()
	fsyncs0 := r.fsyncs
	r.run(ctx, plainOps)
	gc1, cpu1 := gcCPU()
	hits1, misses1, _ := r.cache.Stats()
	fsyncs := r.fsyncs - fsyncs0

	walBytes := int64(0)
	for _, s := range r.sessions {
		if s.walSize != nil {
			if err := s.walSize.Close(); err != nil {
				return nil, err
			}
			fi, err := os.Stat(filepath.Join(r.dir, "walsize-"+s.id+".log"))
			if err != nil {
				return nil, err
			}
			walBytes += fi.Size()
		}
	}
	var retainedEst int64
	for _, s := range r.sessions {
		if s.primary != nil {
			retainedEst += s.ring.RetainedBytes()
		}
	}
	if w.Durable {
		if err := r.crashRecover(ctx); err != nil {
			return nil, err
		}
	}
	retainedHeap := r.retainedHeap()

	stats := byName(r.t.spans)
	tracedSvc := r.svc
	spanFile := filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s.tsv", w.Name))
	if err := writeSpanFile(spanFile, r.t.spans); err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s\n", len(r.t.spans), spanFile)
	writeSelfTable(os.Stdout, r.t.spans)

	us := func(name string) float64 { return float64(stats[name].mean().Nanoseconds()) / 1e3 }
	ms := func(name string) float64 { return us(name) / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cow := 0.0
	if stats["session.apply"].calls > 0 {
		cow = us("session.apply") - us("engine.apply")
	}
	overhead := float64(tracedSvc-plainSvc) / float64(plainSvc)
	m := []struct {
		name string
		v    float64
		unit string
	}{
		{"router.proxy_us", float64(proxy.Nanoseconds()) / 1e3, "us"},
		{"parser.parse_query_us", us("parser.parse_query"), "us"},
		{"storage.plancache_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)), "ratio"},
		{"eval.answers_us", us("eval.answers"), "us"},
		{"eval.answers_per_read", ratio(float64(r.answers), float64(r.reads)), "count"},
		{"server.encode_us", us("server.encode"), "us"},
		{"history.asof_view_us", us("history.asof_view"), "us"},
		{"server.decode_us", us("server.decode"), "us"},
		{"engine.apply_us", us("engine.apply"), "us"},
		{"chase.extend_us", us("chase.extend"), "us"},
		{"eval.extend_us", us("eval.extend"), "us"},
		{"chase.rows_per_apply", ratio(float64(r.rows), float64(r.applies)), "count"},
		{"eval.derived_per_apply", ratio(float64(r.derived), float64(r.applies)), "count"},
		{"eval.rebuild_ratio", ratio(float64(r.rebuilt), float64(r.applies)), "ratio"},
		{"history.cow_us", cow, "us"},
		{"history.retained_mb_est", float64(retainedEst) / (1 << 20), "MB"},
		{"history.retained_mb_heap", retainedHeap / (1 << 20), "MB"},
		{"wal.append_us", us("wal.append"), "us"},
		{"wal.bytes_per_user_byte", ratio(float64(walBytes), float64(r.userBytes)), "ratio"},
		{"wal.fsyncs", float64(fsyncs), "count"},
		{"persist.snapshot_ms", ms("persist.snapshot"), "ms"},
		{"persist.snapshots", float64(stats["persist.snapshot"].calls), "count"},
		{"persist.revive_ms", ms("persist.revive"), "ms"},
		{"persist.revivals", float64(stats["persist.revive"].calls), "count"},
		{"persist.recover_s", r.recover.Seconds(), "s"},
		{"server.decode_instance_ms", ms("server.decode_instance"), "ms"},
		{"chase.saturate_ms", ms("chase.saturate"), "ms"},
		{"eval.init_ms", ms("eval.init"), "ms"},
		{"engine.new_session_ms", ms("engine.new_session"), "ms"},
		{"quality.assemble_ms", ms("quality.assemble"), "ms"},
		{"gc.cpu_frac", ratio(gc1-gc0, cpu1-cpu0), "ratio"},
		{"load.sched_lag_p99_ms", millis(r.lag.Quantile(0.99)), "ms"},
		{"trace.overhead_frac", overhead, "ratio"},
	}
	out := map[string]metric{}
	for _, x := range m {
		fmt.Printf("%-28s %14.4f %s\n", x.name, x.v, x.unit)
		out[x.name] = metric{Value: x.v, Unit: x.unit}
	}
	if sa := stats["session.apply"]; sa.calls > 0 {
		fmt.Printf("# history share of write time: %.1f%% (session.apply %.1f us with history, engine.apply %.1f us without)\n",
			100*cow/us("session.apply"), us("session.apply"), us("engine.apply"))
	}
	for _, e := range r.checkErrs {
		fmt.Printf("# CHECK FAILED: %s\n", e)
	}
	return &result{Correct: len(r.checkErrs) == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: out}, nil
}
