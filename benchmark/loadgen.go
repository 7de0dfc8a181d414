package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/datalog"
	"repro/internal/gen"
	"repro/internal/load"
)

// client speaks the mdserve wire API through one target (the router,
// or a shard directly). It wraps gen.HTTPTarget with the calls the
// benchmark needs beyond it: as-of reads and assessments whose bodies
// are checked.
type client struct {
	gen.HTTPTarget
}

// newClient allows at most conns connections to the target, so the
// load never runs on more connections than it has workers.
func newClient(baseURL string, conns int) client {
	return client{gen.HTTPTarget{
		BaseURL: baseURL,
		Context: "gen",
		Client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
		}},
	}}
}

// answersAt streams a clean query at a past session version.
func (c client) answersAt(ctx context.Context, id, q string, version int) ([][]string, error) {
	u := fmt.Sprintf("%s/v1/contexts/%s/sessions/%s/answers?mode=clean&as_of=%d&q=%s",
		c.BaseURL, c.Context, id, version, url.QueryEscape(q))
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		return nil, &gen.HTTPError{Status: resp.StatusCode, Body: strings.TrimSpace(string(body))}
	}
	return readAnswerStream(resp.Body)
}

// readAnswerStream decodes an NDJSON answer stream: answer lines, then
// a count line that must match. An error line mid-stream fails the
// read.
func readAnswerStream(r io.Reader) ([][]string, error) {
	dec := json.NewDecoder(r)
	var out [][]string
	for {
		var line struct {
			Answer []string        `json:"answer"`
			Count  *int            `json:"count"`
			Error  json.RawMessage `json:"error"`
		}
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("answers: stream ended without a count line")
			}
			return nil, err
		}
		switch {
		case len(line.Error) > 0:
			return nil, fmt.Errorf("answers: %s", line.Error)
		case line.Count != nil:
			if *line.Count != len(out) {
				return nil, fmt.Errorf("answers: count %d != %d tuples received", *line.Count, len(out))
			}
			return out, nil
		default:
			out = append(out, line.Answer)
		}
	}
}

// assessment is the checked part of an assessment response.
type assessment struct {
	Versions map[string]struct {
		Tuples [][]string `json:"tuples"`
	} `json:"versions"`
	Measures map[string]struct {
		Original     int `json:"original"`
		Quality      int `json:"quality"`
		Intersection int `json:"intersection"`
	} `json:"measures"`
}

func (c client) postJSON(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, "POST", c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.roundTrip(req, out)
}

func (c client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	return c.roundTrip(req, out)
}

func (c client) roundTrip(req *http.Request, out any) error {
	resp, err := c.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &gen.HTTPError{Status: resp.StatusCode, Body: strings.TrimSpace(string(data))}
	}
	return json.Unmarshal(data, out)
}

// sessionAssessment fetches a session's materialized assessment.
func (c client) sessionAssessment(ctx context.Context, id string) (*assessment, error) {
	var a assessment
	err := c.getJSON(ctx, "/v1/contexts/"+c.Context+"/sessions/"+id+"/assessment", &a)
	return &a, err
}

// digest fingerprints an answer set independent of stream order.
func digest(rows [][]string) uint64 {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// session is the client-side record of one server session: its
// version counter and the ticks behind each version. Writes to a
// session are serialized by the client, so version v is exactly the
// set-up state plus the first v-SeedTicks acknowledged ticks.
type session struct {
	id  string
	wmu sync.Mutex // held across a write round trip

	mu      sync.Mutex
	version int   // latest acknowledged version (0 = opened)
	writing bool  // a write is in flight
	broken  bool  // a write failed: versions can no longer be mapped
	ticks   []int // ticks in version order: ticks[v-1] made version v
}

// quiet returns the version if no write is in flight.
func (s *session) quiet() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version, !s.writing
}

// observation is one checked answer set: a live scan taken while the
// session's version was known, or an as-of scan.
type observation struct {
	session int
	version int
	digest  uint64
	asOf    bool
}

// classes of end-to-end latency.
const (
	classRead = iota
	classAsOf
	classWrite
	classAssess
	numClasses
)

var classNames = [numClasses]string{"read", "asof_read", "write", "assess"}

func classOf(k opKind) int {
	switch k {
	case opAsOf:
		return classAsOf
	case opWrite:
		return classWrite
	case opAssess:
		return classAssess
	default:
		return classRead
	}
}

// loadResult is what one measured run saw.
type loadResult struct {
	lat       [numClasses]load.Histogram
	lag       load.Histogram // how late the generator sent each op
	attempted int64
	failed    int64 // errors, refusals and mid-stream error lines
	dropped   int64 // arrivals shed because the queue was full
	lastErr   error
	obs       []observation
	checkErrs []string
}

func (r *loadResult) merge(o *loadResult) {
	for i := range r.lat {
		r.lat[i].Merge(&o.lat[i])
	}
	r.failed += o.failed
	if o.lastErr != nil {
		r.lastErr = o.lastErr
	}
	r.obs = append(r.obs, o.obs...)
	r.checkErrs = append(r.checkErrs, o.checkErrs...)
}

// runner executes ops against the router.
type runner struct {
	w        workload
	c        client
	sessions []*session
	stream   *gen.StreamingWorkload
	// assessBody is the cold-assess request body and expectClean the
	// clean count every assessment must report.
	assessBody  []byte
	expectClean int
}

// tick renders tick i as atoms. Every session draws from the same
// tick sequence; sessions are independent, so the same tick in two
// sessions is two separate arrivals.
func (r *runner) tick(i int) []datalog.Atom {
	d, _ := r.stream.Tick(i)
	return d
}

// exec runs one op and records its latency from due (the scheduled
// send time) into res; checking what came back is not timed. A failed
// op is counted, not timed, so fast failures cannot pull the
// latencies down; a warm-up op is not timed either.
func (r *runner) exec(ctx context.Context, o op, due time.Time, res *loadResult) {
	check, err := r.do(ctx, o)
	d := time.Since(due)
	if err != nil {
		res.failed++
		res.lastErr = fmt.Errorf("op %d (%s): %w", o.ID, o.Kind, err)
		return
	}
	if o.Warm {
		if check != nil {
			check(res)
		}
		return
	}
	res.lat[classOf(o.Kind)].Observe(d)
	if check != nil {
		check(res)
	}
}

// do sends one op; the returned func, if any, records what the reply
// is checked against later.
func (r *runner) do(ctx context.Context, o op) (func(*loadResult), error) {
	var s *session
	if o.Kind != opAssess {
		s = r.sessions[o.Session]
	}
	switch o.Kind {
	case opRead:
		before, ok1 := s.quiet()
		rows, err := r.c.Answers(ctx, s.id, scanQuery, "clean")
		if err != nil {
			return nil, err
		}
		after, ok2 := s.quiet()
		if !ok1 || !ok2 || before != after {
			return nil, nil // a write overlapped: the version read is unknown
		}
		return func(res *loadResult) {
			res.obs = append(res.obs, observation{session: o.Session, version: after, digest: digest(rows)})
		}, nil
	case opAsOf:
		s.mu.Lock()
		v := max(0, s.version-o.Back)
		s.mu.Unlock()
		rows, err := r.c.answersAt(ctx, s.id, scanQuery, v)
		if err != nil {
			return nil, err
		}
		return func(res *loadResult) {
			res.obs = append(res.obs, observation{session: o.Session, version: v, digest: digest(rows), asOf: true})
		}, nil
	case opWrite:
		return nil, r.write(ctx, s, o.Tick)
	case opAssess:
		var a assessment
		if err := r.c.postJSON(ctx, "/v1/contexts/gen/assess", r.assessBody, &a); err != nil {
			return nil, err
		}
		return func(res *loadResult) {
			if m := a.Measures["Measurements"]; m.Quality != r.expectClean || m.Original != r.w.N {
				res.checkErrs = append(res.checkErrs, fmt.Sprintf("assess op %d: clean %d of %d, want %d of %d",
					o.ID, m.Quality, m.Original, r.expectClean, r.w.N))
			}
		}, nil
	}
	return nil, fmt.Errorf("unknown op kind %d", o.Kind)
}

// write applies one tick, serialized with the session's other writes
// so that acknowledged ticks and versions stay in step.
func (r *runner) write(ctx context.Context, s *session, tick int) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	s.writing = true
	s.mu.Unlock()
	err := r.c.ApplyBatch(ctx, s.id, r.tick(tick))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writing = false
	if err != nil {
		s.broken = true
		return err
	}
	s.version++
	s.ticks = append(s.ticks, tick)
	return nil
}

// placeSessions picks the session ids so that session i lives on
// shard i mod numShards. Shard ports change from run to run and with
// them the ring's placement of any fixed id; placing by index keeps
// each shard's share of the sessions, and of the zipf-ranked load, the
// same in every run. The router names the shard that owns an id in
// the X-Mdrouter-Backend header even of a 404, so probing creates
// nothing.
func (r *runner) placeSessions(ctx context.Context, shards []string) ([]string, error) {
	ids := make([]string, r.w.Sessions)
	for i, c := 0, 0; i < len(ids); c++ {
		if c > 100*len(ids) {
			return nil, fmt.Errorf("no session id lands on shard %d", i%len(shards))
		}
		id := sessionID(c)
		req, err := http.NewRequestWithContext(ctx, "GET", r.c.BaseURL+"/v1/contexts/gen/sessions/"+id, nil)
		if err != nil {
			return nil, err
		}
		resp, err := r.c.Client.Do(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Mdrouter-Backend") == shards[i%len(shards)] {
			ids[i] = id
			i++
		}
	}
	return ids, nil
}

// setup places, opens and seeds the session population; for
// serve-read it also captures the scan at every seeded version.
func (r *runner) setup(ctx context.Context, shards []string) ([]observation, error) {
	ids, err := r.placeSessions(ctx, shards)
	if err != nil {
		return nil, err
	}
	var obs []observation
	r.sessions = make([]*session, r.w.Sessions)
	for i := range r.sessions {
		s := &session{id: ids[i]}
		r.sessions[i] = s
		if _, err := r.c.OpenSessionWithID(ctx, s.id); err != nil {
			return nil, fmt.Errorf("open session %s: %w", s.id, err)
		}
		for t := 0; t < r.w.SeedTicks; t++ {
			if err := r.write(ctx, s, t); err != nil {
				return nil, fmt.Errorf("seed session %s: %w", s.id, err)
			}
			if r.w.AsOfFrac > 0 {
				rows, err := r.c.Answers(ctx, s.id, scanQuery, "clean")
				if err != nil {
					return nil, fmt.Errorf("seed read %s: %w", s.id, err)
				}
				obs = append(obs, observation{session: i, version: s.version, digest: digest(rows)})
			}
		}
	}
	return obs, nil
}

// touchAll scans every session, in session order.
func (r *runner) touchAll(ctx context.Context) error {
	for _, s := range r.sessions {
		if _, err := r.c.Answers(ctx, s.id, scanQuery, "clean"); err != nil {
			return fmt.Errorf("touch session %s: %w", s.id, err)
		}
	}
	return nil
}

// openLoop offers ops on their schedule through w.Conns workers. Each
// op's latency runs from its scheduled send time, so a stall also
// charges the ops queued behind it. An arrival that finds the queue
// full (one second of backlog) is dropped and counted. measure is
// called when the first op after the warm-up is due.
func (r *runner) openLoop(ctx context.Context, ops []op, measure func()) *loadResult {
	res := &loadResult{attempted: int64(len(ops))}
	type arrival struct {
		o   op
		due time.Time
	}
	queue := make(chan arrival, int(r.w.Rate)+1) // one second of backlog
	parts := make([]*loadResult, r.w.Conns)
	var wg sync.WaitGroup
	for i := range parts {
		part := &loadResult{}
		parts[i] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				r.exec(ctx, a.o, a.due, part)
			}
		}()
	}
	start := time.Now()
	warm := true
	for _, o := range ops {
		due := start.Add(o.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if warm && !o.Warm {
			warm = false
			measure()
		}
		res.lag.Observe(time.Since(due))
		select {
		case queue <- arrival{o, due}:
		default:
			res.dropped++
		}
	}
	close(queue)
	wg.Wait()
	for _, p := range parts {
		res.merge(p)
	}
	return res
}

// closedLoop runs one caller that sends the next assessment as soon as
// the previous one returns: through the warm-up, then measure is
// called and it goes on for d. The generator's lag is the gap between
// a reply and the next send.
func (r *runner) closedLoop(ctx context.Context, d time.Duration, measure func()) *loadResult {
	res := &loadResult{}
	start := time.Now()
	prev := start
	var end time.Time
	for i := 0; end.IsZero() || time.Now().Before(end); i++ {
		now := time.Now()
		if end.IsZero() && now.Sub(start) >= warmup {
			measure()
			now = time.Now()
			end = now.Add(d)
		}
		res.lag.Observe(now.Sub(prev))
		res.attempted++
		r.exec(ctx, op{ID: i, Kind: opAssess, Warm: end.IsZero()}, now, res)
		prev = time.Now()
	}
	return res
}
