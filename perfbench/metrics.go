package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/entry"
	"filterdir/internal/metrics"
)

// quantile returns the q-quantile of xs (nearest rank on the sorted
// samples); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eUnits fixes every end-to-end metric's unit. None of them is a
// duration of the window's work: see "Why no latency is gated" in
// README.md. Those durations are printed with every run instead.
var e2eUnits = map[string]string{
	"setup_s":               "s",
	"hit_ratio":             "ratio",
	"ok_ratio":              "ratio",
	"wire_bytes_per_update": "B",
	"join_wire_kb":          "KB",
	"alloc_kb_per_op":       "KB",
	"heap_live_mb":          "MB",
	"session_heap_kb":       "KB",
}

// staleness joins every fixed-rate commit with each relevant standing
// leaf's watermark log: hop → samples in ms, plus pairs never covered.
func (r *run) staleness() (map[int][]float64, int) {
	out := map[int][]float64{}
	unresolved := 0
	for _, cm := range r.commits {
		for _, l := range r.c.leaves {
			at, relevant, resolved := stalenessFor(cm.ch, l)
			switch {
			case !relevant:
			case !resolved:
				unresolved++
			default:
				out[l.hop] = append(out[l.hop], ms(at.Sub(cm.due)))
			}
		}
	}
	return out, unresolved
}

// metrics computes the end-to-end metrics and the counter-based per-layer
// metrics (span-based ones come from spanMetrics in traced runs).
func (r *run) metrics() (e2e, layer map[string]metric, attempted, failed int) {
	hitMs, referredMs, writeMs, joinMs := r.latencies()
	referred := 0
	for _, l := range r.lookups {
		attempted++
		if l.referred {
			referred++
		}
		if l.err != nil {
			failed++
		}
	}
	okWrites := len(writeMs)
	for _, w := range r.writes {
		attempted++
		if w.err != nil {
			failed++
		}
	}
	for _, j := range r.joins {
		attempted++
		if j.err != nil {
			failed++
		}
	}
	stale, unresolved := r.staleness()
	r.unresolved = unresolved

	b, a := r.before, r.after
	cpu := a.cpu - b.cpu
	// CPU and allocation are spread over every operation the window
	// finished, failed or not: a failed lookup costs CPU too.
	primary := len(r.writes)
	if r.name == "lookup" {
		primary = len(r.lookups)
	}
	updates := float64(okWrites)
	wire := float64(a.hop1 - b.hop1 + a.hop2 - b.hop2)

	e2e = map[string]metric{}
	set := func(m map[string]metric, name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	e := func(name string, v float64) { set(e2e, name, v, e2eUnits[name]) }
	e("setup_s", r.setupS)
	e("hit_ratio", ratio(float64(a.hits-b.hits), float64(a.queries-b.queries)))
	e("ok_ratio", ratio(float64(attempted-failed), float64(attempted)))
	e("wire_bytes_per_update", ratio(wire, updates))
	e("join_wire_kb", ratio(float64(r.joinBytes.n.Load())/1024, float64(len(r.joins))))
	e("alloc_kb_per_op", ratio(float64(a.alloc-b.alloc)/1024, float64(primary)))
	e("heap_live_mb", float64(heapLive())/(1<<20))
	e("session_heap_kb", r.sessionHeapKB)

	r.timings = []string{fmt.Sprintf("cpu_us_per_op=%.1f", ratio(us(cpu), float64(primary)))}
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"lookup_hit", hitMs}, {"lookup_referred", referredMs}, {"write", writeMs},
		{"staleness_hop1", stale[1]}, {"staleness_hop2", stale[2]}, {"join", joinMs}} {
		r.timings = append(r.timings, fmt.Sprintf("%s_ms: n=%d p50=%.3f p90=%.3f p99=%.3f max=%.3f",
			t.name, len(t.xs), quantile(t.xs, 0.5), quantile(t.xs, 0.9), quantile(t.xs, 0.99), quantile(t.xs, 1)))
	}

	layer = map[string]metric{}
	l := func(name string, v float64, unit string) { set(layer, name, v, unit) }
	wall := a.at.Sub(b.at)
	dBatches := float64(a.store.Batches - b.store.Batches)
	dOps := float64(a.store.BatchedOps - b.store.BatchedOps)
	l("dit.ops_per_batch", ratio(dOps, dBatches), "ops")
	l("dit.shard_clones_per_commit", ratio(float64(a.store.ShardClones-b.store.ShardClones), dOps), "clones")
	l("dit.journal_len", float64(journalLen(r)), "records")
	ms0, ms1 := b.msync, a.msync
	l("resync.classify_us_per_update", ratio(float64(classifyNanos(ms1)-classifyNanos(ms0))/1e3, updates), "us")
	l("resync.classify_dedup_ratio", dedup(ms0.SharedClassifyHits, ms1.SharedClassifyHits, ms0.SharedClassifyMisses, ms1.SharedClassifyMisses), "ratio")
	l("resync.pdus_per_update", ratio(float64(ms1.PDUs()-ms0.PDUs()), updates), "pdus")
	ts0, ts1 := b.tsync, a.tsync
	l("resync.full_reloads", float64(ms1.FullReloads-ms0.FullReloads+ts1.FullReloads-ts0.FullReloads), "count")
	l("resync.coalesced_cycles", float64(ms1.CoalescedCycles-ms0.CoalescedCycles+ts1.CoalescedCycles-ts0.CoalescedCycles), "count")
	l("resync.slow_demotions", float64(ms1.SlowDemotions-ms0.SlowDemotions+ts1.SlowDemotions-ts0.SlowDemotions), "count")
	c0, c1 := b.casc, a.casc
	l("cascade.rebroadcast_mean_ms", ratio(ms(time.Duration(rebroadcastNanos(c1)-rebroadcastNanos(c0))), float64(c1.Rebroadcasts-c0.Rebroadcasts)), "ms")
	l("cascade.updates_per_batch", ratio(float64(c1.UpstreamUpdates-c0.UpstreamUpdates), float64(c1.UpstreamBatches-c0.UpstreamBatches)), "updates")
	l("cascade.classify_dedup_ratio", dedup(ts0.SharedClassifyHits, ts1.SharedClassifyHits, ts0.SharedClassifyMisses, ts1.SharedClassifyMisses), "ratio")
	l("cascade.sessions_left_behind", float64(r.leftBehind), "count")
	l("supervisor.updates_per_exchange", ratio(float64(a.applied-b.applied), float64(a.exchange-b.exchange)), "updates")
	l("supervisor.stream_breaks", float64(r.c.streamBreaks()), "count")
	l("replica.containment_checks_per_lookup", ratio(float64(a.checks-b.checks), float64(a.queries-b.queries)), "checks")
	l("ldapnet.hop1_bytes_per_update", ratio(float64(a.hop1-b.hop1), updates), "B")
	l("ldapnet.hop2_bytes_per_update", ratio(float64(a.hop2-b.hop2), updates), "B")
	l("ldapnet.referrals_per_lookup", ratio(float64(referred), float64(len(r.lookups))), "ratio")
	l("runtime.cpu_util", ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.NumCPU())), "ratio")
	l("runtime.gc_cpu_fraction", ratio(a.gcCPU-b.gcCPU, a.allCPU-b.allCPU), "ratio")
	lag := make([]float64, len(r.lag))
	for i, d := range r.lag {
		lag[i] = ms(d)
	}
	l("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms")
	return e2e, layer, attempted, failed
}

// latencies returns the latencies of successful lookups answered at the
// leaf, of successful lookups chased to the master, of writes and of joins.
func (r *run) latencies() (hits, referred, writes, joins []float64) {
	for _, l := range r.lookups {
		switch {
		case l.err != nil:
		case l.referred:
			referred = append(referred, ms(l.done.Sub(l.due)))
		default:
			hits = append(hits, ms(l.done.Sub(l.due)))
		}
	}
	for _, w := range r.writes {
		if w.err == nil {
			writes = append(writes, ms(w.done.Sub(w.due)))
		}
	}
	for _, j := range r.joins {
		if j.err == nil {
			joins = append(joins, ms(j.took))
		}
	}
	return hits, referred, writes, joins
}

// classifyNanos and rebroadcastNanos recover totals from a snapshot's
// mean and count.
func classifyNanos(s metrics.SyncSnapshot) int64 { return int64(s.AvgClassify) * s.Classifies }

func rebroadcastNanos(s metrics.CascadeSnapshot) int64 {
	return int64(s.AvgRebroadcast) * s.Rebroadcasts
}

func dedup(h0, h1, m0, m1 int64) float64 {
	return ratio(float64(h1-h0), float64(h1-h0+m1-m0))
}

func heapLive() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// journalLen is the master journal's length: LastCSN minus the oldest
// position ChangesSince still answers.
func journalLen(r *run) int {
	st := r.c.dir.Master
	last := st.LastCSN()
	lo, hi := dit.CSN(0), last // ChangesSince(hi) is always answerable
	for lo < hi {
		mid := lo + (hi-lo)/2
		if _, ok := st.ChangesSince(mid); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int(last - lo)
}

// guards renders the validity guards printed with every run, reading the
// per-layer metrics they share, and the timings of the window.
func (r *run) guards(layer map[string]metric) string {
	var sb strings.Builder
	lag := make([]float64, len(r.lag))
	for i, d := range r.lag {
		lag[i] = ms(d)
	}
	fmt.Fprintf(&sb, "guards: loadgen.lag_p50_ms=%.3f loadgen.lag_p90_ms=%.3f loadgen.lag_p99_ms=%.3f runtime.cpu_util=%.3f",
		quantile(lag, 0.5), quantile(lag, 0.9), layer["loadgen.lag_p99_ms"].Value, layer["runtime.cpu_util"].Value)
	fmt.Fprintf(&sb, " master_journal_at_bound=%v tier_journal_at_bound=%v",
		journalAtBound(r.c.dir.Master, r.p.journal), journalAtBound(r.c.tier.Replica().Store(), r.p.journal))
	fmt.Fprintf(&sb, " supervisor.stream_breaks=%d staleness_unresolved=%d", r.c.streamBreaks(), r.unresolved)
	fmt.Fprintf(&sb, "\nsamples: lookups=%d writes=%d joins=%d", len(r.lookups), len(r.writes), len(r.joins))
	for _, t := range r.timings {
		fmt.Fprintf(&sb, "\ntiming: %s", t)
	}
	return sb.String()
}

// syncSpans turns the staleness join into spans: one per (commit, leaf)
// pair, from the end of the master's commit span to the leaf's covering
// watermark, child of the write's span.
func (r *run) syncSpans(spans []span) []span {
	committed := map[uint64]int64{}
	for _, s := range spans {
		if s.Name == "dit.commit" && s.Parent != 0 {
			committed[s.CSN] = s.End
		}
	}
	var out []span
	for _, cm := range r.commits {
		start, ok := committed[uint64(cm.ch.CSN)]
		if !ok {
			start = r.tr.ns(cm.due)
		}
		for _, l := range r.c.leaves {
			at, _, resolved := stalenessFor(cm.ch, l)
			if !resolved {
				continue
			}
			out = append(out, span{ID: r.tr.newID(), Parent: cm.w.span, Name: fmt.Sprintf("sync.hop%d", l.hop),
				Start: start, End: r.tr.ns(at), CSN: uint64(cm.ch.CSN)})
		}
	}
	return out
}

// spanMetrics computes the per-layer metrics that need spans.
func (r *run) spanMetrics(spans []span) map[string]metric {
	var commit, search, begin, answer []float64
	var busy time.Duration
	searchFails := 0
	beginOf := map[uint64]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "dit.commit":
			if s.Parent != 0 {
				commit = append(commit, us(s.dur()))
				busy += s.dur()
			}
		case "dit.search":
			search = append(search, us(s.dur()))
			if s.Err {
				searchFails++
			}
		case "cascade.begin":
			if s.Parent != 0 {
				begin = append(begin, ms(s.dur()))
				beginOf[s.Parent] = s.dur()
			}
		case "replica.answer":
			answer = append(answer, us(s.dur()))
		}
	}
	var transfer []float64
	for _, s := range spans {
		if s.Name == "join" {
			if b, ok := beginOf[s.ID]; ok {
				transfer = append(transfer, ms(s.dur()-b))
			}
		}
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	set("dit.commit.p50_us", quantile(commit, 0.5), "us")
	set("dit.commit.p99_us", quantile(commit, 0.99), "us")
	set("dit.commit.busy_s", busy.Seconds(), "s")
	set("dit.search.p50_us", quantile(search, 0.5), "us")
	set("dit.search.p99_us", quantile(search, 0.99), "us")
	set("dit.search.fail_ratio", ratio(float64(searchFails), float64(len(search))), "ratio")
	set("cascade.begin.p50_ms", quantile(begin, 0.5), "ms")
	set("cascade.begin.p90_ms", quantile(begin, 0.9), "ms")
	set("supervisor.join_transfer_p50_ms", quantile(transfer, 0.5), "ms")
	set("replica.answer.p50_us", quantile(answer, 0.5), "us")
	set("replica.answer.p99_us", quantile(answer, 0.99), "us")
	return m
}

// sameEntries compares two result sets entry for entry.
func sameEntries(got, want []*entry.Entry) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, master has %d", len(got), len(want))
	}
	byDN := make(map[string]*entry.Entry, len(want))
	for _, e := range want {
		byDN[e.DN().Norm()] = e
	}
	for _, g := range got {
		w, ok := byDN[g.DN().Norm()]
		if !ok {
			return "unexpected " + g.DN().String()
		}
		if !g.Equal(w) {
			return g.DN().String() + " differs"
		}
	}
	return ""
}
