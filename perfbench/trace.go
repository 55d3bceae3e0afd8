package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/dit"
	"filterdir/internal/ldapnet"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/resync"
)

// span is one timed interval at a layer boundary. Parent links it to the
// operation that caused it (0 = none known).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CSN    uint64 `json:"csn,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The outstanding-
// operation fields link a layer's span to the load generator's operation:
// each leaf has a single outstanding lookup, the fixed-rate writer a
// single outstanding write, and joins run one at a time.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span

	lookupMu     sync.Mutex
	lookupByLeaf map[string]uint64
	lookupByKey  map[string]uint64

	write atomic.Uint64
	join  atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), lookupByLeaf: map[string]uint64{}, lookupByKey: map[string]uint64{}}
}

func (t *tracer) newID() uint64         { return t.ids.Add(1) }
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) beginLookup(leaf string, q query.Query, id uint64) {
	t.lookupMu.Lock()
	t.lookupByLeaf[leaf] = id
	t.lookupByKey[q.Key()] = id
	t.lookupMu.Unlock()
}

func (t *tracer) endLookup(leaf string, q query.Query) {
	t.lookupMu.Lock()
	delete(t.lookupByLeaf, leaf)
	delete(t.lookupByKey, q.Key())
	t.lookupMu.Unlock()
}

func (t *tracer) lookupParent(leaf string, q query.Query) uint64 {
	t.lookupMu.Lock()
	defer t.lookupMu.Unlock()
	if leaf != "" {
		return t.lookupByLeaf[leaf]
	}
	return t.lookupByKey[q.Key()]
}

// timed runs fn and records it as a span named name under parent.
func (t *tracer) timed(name string, parent uint64, fn func() error) (span, error) {
	start := time.Now()
	err := fn()
	s := span{ID: t.newID(), Parent: parent, Name: name, Start: t.ns(start), End: t.ns(time.Now()), Err: err != nil}
	return s, err
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// ---------------------------------------------------------------------
// Wrappers around the public seams of each layer.

// tracedMaster times the master's store calls: searches of referred
// lookups and commits of writes. With a single fixed-rate writer the
// store's last CSN after a commit is that write's CSN.
type tracedMaster struct {
	*ldapnet.StoreBackend
	tr *tracer
}

func (m *tracedMaster) Search(q query.Query) (*dit.Result, error) {
	var res *dit.Result
	s, err := m.tr.timed("dit.search", m.tr.lookupParent("", q), func() (err error) {
		res, err = m.StoreBackend.Search(q)
		return err
	})
	m.tr.record(s)
	return res, err
}

func (m *tracedMaster) commit(fn func() error) error {
	s, err := m.tr.timed("dit.commit", m.tr.write.Load(), fn)
	if err == nil {
		s.CSN = uint64(m.Store.LastCSN())
	}
	m.tr.record(s)
	return err
}

func (m *tracedMaster) Add(r *proto.AddRequest) error {
	return m.commit(func() error { return m.StoreBackend.Add(r) })
}

func (m *tracedMaster) Delete(r *proto.DelRequest) error {
	return m.commit(func() error { return m.StoreBackend.Delete(r) })
}

func (m *tracedMaster) Modify(r *proto.ModifyRequest) error {
	return m.commit(func() error { return m.StoreBackend.Modify(r) })
}

func (m *tracedMaster) ModifyDN(r *proto.ModifyDNRequest) error {
	return m.commit(func() error { return m.StoreBackend.ModifyDN(r) })
}

// tracedLeaf times a leaf's local answer (hit) or referral (miss).
type tracedLeaf struct {
	*ldapnet.ReplicaBackend
	tr   *tracer
	name string
}

func (l *tracedLeaf) Search(q query.Query) (*dit.Result, error) {
	var res *dit.Result
	s, err := l.tr.timed("replica.answer", l.tr.lookupParent(l.name, q), func() (err error) {
		res, err = l.ReplicaBackend.Search(q)
		return err
	})
	// A referral is the miss outcome, not a failure of the layer.
	s.Err = false
	l.tr.record(s)
	return res, err
}

// tracedTier times session admission and the initial snapshot at the
// tier (cascade.begin), linked to the join that asked for it.
type tracedTier struct {
	*cascade.Tier
	tr *tracer
}

func (t *tracedTier) SyncBegin(q query.Query) (*resync.PollResult, error) {
	var res *resync.PollResult
	s, err := t.tr.timed("cascade.begin", t.tr.join.Load(), func() (err error) {
		res, err = t.Tier.SyncBegin(q)
		return err
	})
	t.tr.record(s)
	return res, err
}

// ---------------------------------------------------------------------
// Span output and self time

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its children.
func selfTimes(spans []span) []layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += s.dur()
		r.self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

func printSelfTimes(w io.Writer, rows []layerTime) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, r := range rows {
		per := 0.0
		if r.count > 0 {
			per = float64(r.self.Microseconds()) / float64(r.count)
		}
		fmt.Fprintf(w, "%-22s %8d %12.1f %12.1f %10.1f\n", r.name, r.count,
			float64(r.total.Microseconds())/1000, float64(r.self.Microseconds())/1000, per)
	}
}
