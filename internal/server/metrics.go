package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/mdqa"
)

// metrics aggregates per-context serving counters and request
// latencies. One mutex guards everything: the hot paths (an assess, an
// apply batch, an answers stream) each take it once per request, so
// contention stays negligible next to the engine work they account.
type metrics struct {
	mu       sync.Mutex
	contexts map[string]*contextMetrics
	// walFsyncs counts fsyncs across the whole store (the WAL layer
	// reports them per sync mode, not per context), fed lock-free from
	// the wal.Options.OnSync hook on the append path.
	walFsyncs atomic.Int64
	// recoveryNanos is the startup recovery wall time (snapshot decode
	// + WAL replay across every persisted session); 0 until a durable
	// server finishes recovery.
	recoveryNanos atomic.Int64
	// planCaches maps context name to that context's ad-hoc query plan
	// cache; the caches keep their own hit/miss/eviction counters and
	// are only read here, at scrape time. Filled once at startup.
	planCaches map[string]*mdqa.PlanCache
	// sources maps context name to the facade context, for contexts
	// with live source bindings only: the resolver keeps its own
	// per-binding counters and fetch-latency samples, read at scrape
	// time. Contexts without sources never appear, so their scrape
	// output is unchanged. Filled once at startup.
	sources map[string]*mdqa.Context
}

// ops is the fixed latency class vocabulary, in render order.
// wal_append rings stay empty on ephemeral servers, and refresh rings
// on contexts without sources; empty rings are skipped by render, so
// earlier scrape goldens are unchanged.
var ops = []string{"assess", "apply", "answers", "refresh", "wal_append"}

// fsynced is the wal.Options.OnSync hook.
func (m *metrics) fsynced() { m.walFsyncs.Add(1) }

// setRecovery records the startup recovery duration.
func (m *metrics) setRecovery(d time.Duration) { m.recoveryNanos.Store(int64(d)) }

// contextMetrics is the per-context slice of the counters.
type contextMetrics struct {
	assessTotal   int64 // one-shot + session assessments served
	applyTotal    int64 // apply batches absorbed
	answersTotal  int64 // answer tuples streamed
	sessionsTotal int64 // sessions ever opened
	sessionsOpen  int64 // sessions currently registered
	errorsTotal   int64 // requests answered with an error body
	chaseRounds   int64 // cumulative chase rounds across all sessions
	replans       int64 // session re-plans after stat drift (engine)

	// Source-refresh counters; all stay zero on contexts without live
	// sources (and are rendered only for sourced contexts).
	refreshesTotal  int64 // Session.Refresh calls served (HTTP + loop)
	refreshRebuilds int64 // refreshes that fell back to a rebuild
	refreshErrors   int64 // refreshes failed (source unavailable, ...)

	// Durability counters; all stay zero on ephemeral servers.
	walAppends        int64 // acknowledged batches appended to WALs
	snapshotsWritten  int64 // compaction + shutdown snapshots written
	sessionsEvicted   int64 // sessions snapshotted out under MaxResident
	sessionsRevived   int64 // evicted sessions transparently reloaded
	sessionsRecovered int64 // sessions restored from disk at startup
	asofReconstructs  int64 // as-of reads served by disk reconstruction

	latency map[string]*latencyRing
}

func newMetrics(contexts []string) *metrics {
	m := &metrics{
		contexts:   make(map[string]*contextMetrics, len(contexts)),
		planCaches: map[string]*mdqa.PlanCache{},
		sources:    map[string]*mdqa.Context{},
	}
	for _, name := range contexts {
		cm := &contextMetrics{latency: make(map[string]*latencyRing, len(ops))}
		for _, op := range ops {
			cm.latency[op] = newLatencyRing(1024)
		}
		m.contexts[name] = cm
	}
	return m
}

// with runs fn on the named context's counters under the lock;
// unknown names (races with nothing — context set is fixed at startup)
// are ignored.
func (m *metrics) with(context string, fn func(*contextMetrics)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cm, ok := m.contexts[context]; ok {
		fn(cm)
	}
}

// observe records one request latency in the op's ring.
func (m *metrics) observe(context, op string, d time.Duration) {
	m.with(context, func(cm *contextMetrics) {
		if r, ok := cm.latency[op]; ok {
			r.observe(d)
		}
	})
}

// render writes the Prometheus-style text exposition: counters first,
// then the gauges — retained is the history memory per context (see
// Server.historyRetained) — and the p50/p99 latency quantiles,
// contexts and ops in fixed sorted order so scrapes are stable.
func (m *metrics) render(b *strings.Builder, retained map[string]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.contexts))
	for name := range m.contexts {
		names = append(names, name)
	}
	sort.Strings(names)
	counter := func(metric string, pick func(*contextMetrics) int64) {
		fmt.Fprintf(b, "# TYPE %s counter\n", metric)
		for _, name := range names {
			fmt.Fprintf(b, "%s{context=%q} %d\n", metric, name, pick(m.contexts[name]))
		}
	}
	counter("mdserve_assess_total", func(c *contextMetrics) int64 { return c.assessTotal })
	counter("mdserve_apply_batches_total", func(c *contextMetrics) int64 { return c.applyTotal })
	counter("mdserve_answers_streamed_total", func(c *contextMetrics) int64 { return c.answersTotal })
	counter("mdserve_sessions_opened_total", func(c *contextMetrics) int64 { return c.sessionsTotal })
	counter("mdserve_errors_total", func(c *contextMetrics) int64 { return c.errorsTotal })
	counter("mdserve_chase_rounds_total", func(c *contextMetrics) int64 { return c.chaseRounds })
	counter("mdserve_wal_appends_total", func(c *contextMetrics) int64 { return c.walAppends })
	counter("mdserve_snapshots_written_total", func(c *contextMetrics) int64 { return c.snapshotsWritten })
	counter("mdserve_sessions_evicted_total", func(c *contextMetrics) int64 { return c.sessionsEvicted })
	counter("mdserve_sessions_revived_total", func(c *contextMetrics) int64 { return c.sessionsRevived })
	counter("mdserve_sessions_recovered_total", func(c *contextMetrics) int64 { return c.sessionsRecovered })
	counter("mdserve_asof_reconstructs_total", func(c *contextMetrics) int64 { return c.asofReconstructs })
	counter("mdserve_replans_total", func(c *contextMetrics) int64 { return c.replans })
	planCounter := func(metric string, pick func(hits, misses, evictions int64) int64) {
		fmt.Fprintf(b, "# TYPE %s counter\n", metric)
		for _, name := range names {
			var h, mi, e int64
			if pc := m.planCaches[name]; pc != nil {
				h, mi, e = pc.Stats()
			}
			fmt.Fprintf(b, "%s{context=%q} %d\n", metric, name, pick(h, mi, e))
		}
	}
	planCounter("mdserve_plan_cache_hits_total", func(h, _, _ int64) int64 { return h })
	planCounter("mdserve_plan_cache_misses_total", func(_, mi, _ int64) int64 { return mi })
	planCounter("mdserve_plan_cache_evictions_total", func(_, _, e int64) int64 { return e })
	// Source-federation metrics, emitted only for contexts with live
	// source bindings: scrape output of sourceless deployments is
	// byte-identical to the pre-federation format.
	var sourced []string
	for _, name := range names {
		if m.sources[name] != nil {
			sourced = append(sourced, name)
		}
	}
	if len(sourced) > 0 {
		refreshCounter := func(metric string, pick func(*contextMetrics) int64) {
			fmt.Fprintf(b, "# TYPE %s counter\n", metric)
			for _, name := range sourced {
				fmt.Fprintf(b, "%s{context=%q} %d\n", metric, name, pick(m.contexts[name]))
			}
		}
		refreshCounter("mdserve_refreshes_total", func(c *contextMetrics) int64 { return c.refreshesTotal })
		refreshCounter("mdserve_refresh_rebuilds_total", func(c *contextMetrics) int64 { return c.refreshRebuilds })
		refreshCounter("mdserve_refresh_errors_total", func(c *contextMetrics) int64 { return c.refreshErrors })
		sourceCounter := func(metric string, pick func(mdqa.SourceStats) int64) {
			fmt.Fprintf(b, "# TYPE %s counter\n", metric)
			for _, name := range sourced {
				qc := m.sources[name]
				stats := qc.SourceStatsByName()
				for _, src := range qc.SourceNames() {
					fmt.Fprintf(b, "%s{context=%q,source=%q} %d\n", metric, name, src, pick(stats[src]))
				}
			}
		}
		sourceCounter("mdserve_source_fetches_total", func(st mdqa.SourceStats) int64 { return st.Fetches })
		sourceCounter("mdserve_source_fetch_errors_total", func(st mdqa.SourceStats) int64 { return st.Errors })
		sourceCounter("mdserve_source_cache_hits_total", func(st mdqa.SourceStats) int64 { return st.CacheHits })
		sourceCounter("mdserve_source_stale_served_total", func(st mdqa.SourceStats) int64 { return st.StaleServed })
		fmt.Fprintf(b, "# TYPE mdserve_source_fetch_latency_seconds summary\n")
		for _, name := range sourced {
			samples := m.sources[name].SourceFetchLatencies()
			if len(samples) == 0 {
				continue
			}
			sorted := append([]time.Duration(nil), samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, q := range []struct {
				label string
				p     float64
			}{{"0.5", 0.50}, {"0.99", 0.99}} {
				rank := int(q.p*float64(len(sorted))+0.5) - 1
				if rank < 0 {
					rank = 0
				}
				fmt.Fprintf(b, "mdserve_source_fetch_latency_seconds{context=%q,quantile=%q} %.6f\n",
					name, q.label, sorted[rank].Seconds())
			}
			fmt.Fprintf(b, "mdserve_source_fetch_latency_seconds_count{context=%q} %d\n", name, len(samples))
		}
	}
	fmt.Fprintf(b, "# TYPE mdserve_wal_fsyncs_total counter\nmdserve_wal_fsyncs_total %d\n", m.walFsyncs.Load())
	fmt.Fprintf(b, "# TYPE mdserve_recovery_seconds gauge\nmdserve_recovery_seconds %.6f\n",
		time.Duration(m.recoveryNanos.Load()).Seconds())
	fmt.Fprintf(b, "# TYPE mdserve_sessions_open gauge\n")
	for _, name := range names {
		fmt.Fprintf(b, "mdserve_sessions_open{context=%q} %d\n", name, m.contexts[name].sessionsOpen)
	}
	fmt.Fprintf(b, "# TYPE mdserve_history_retained_bytes gauge\n")
	for _, name := range names {
		fmt.Fprintf(b, "mdserve_history_retained_bytes{context=%q} %d\n", name, retained[name])
	}
	fmt.Fprintf(b, "# TYPE mdserve_request_latency_seconds summary\n")
	for _, name := range names {
		cm := m.contexts[name]
		for _, op := range ops {
			r := cm.latency[op]
			if r.count == 0 {
				continue
			}
			for _, q := range []struct {
				label string
				p     float64
			}{{"0.5", 0.50}, {"0.99", 0.99}} {
				fmt.Fprintf(b, "mdserve_request_latency_seconds{context=%q,op=%q,quantile=%q} %.6f\n",
					name, op, q.label, r.quantile(q.p).Seconds())
			}
			fmt.Fprintf(b, "mdserve_request_latency_seconds_count{context=%q,op=%q} %d\n", name, op, r.count)
		}
	}
}

// latencyRing keeps the last cap request durations; quantiles are
// computed over a sorted copy at scrape time. Bounded memory, O(cap
// log cap) per scrape — fine at cap 1024.
type latencyRing struct {
	samples []time.Duration
	next    int
	count   int64 // total observations ever
}

func newLatencyRing(capacity int) *latencyRing {
	return &latencyRing{samples: make([]time.Duration, 0, capacity)}
}

func (r *latencyRing) observe(d time.Duration) {
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, d)
	} else {
		r.samples[r.next] = d
	}
	r.next = (r.next + 1) % cap(r.samples)
	r.count++
}

// quantile returns the p-th quantile (0 < p <= 1) of the retained
// window, using the nearest-rank method.
func (r *latencyRing) quantile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
