package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/proto"
	"filterdir/internal/query"
	"filterdir/internal/workload"
)

// task is one scheduled operation of an open-loop goroutine.
type task struct {
	due  time.Duration // offset from the window start
	kind int
	arg  int // lookup: index into the goroutine's trace
}

const (
	kindLookup = iota
	kindWrite
)

// constantRate schedules n operations at rate per second over d, offset
// by phase (a fraction of one interval) so merged streams interleave.
func constantRate(rate float64, d time.Duration, kind int, phase float64) []task {
	if rate <= 0 {
		return nil
	}
	n := int(rate * d.Seconds())
	out := make([]task, n)
	for i := range out {
		out[i] = task{due: time.Duration((float64(i) + phase) / rate * float64(time.Second)), kind: kind, arg: i}
	}
	return out
}

// runOpenLoop executes tasks at their due times from start; a task that is
// late runs at once, and its latency still counts from its due time. lag
// receives each task's lateness.
func runOpenLoop(start time.Time, tasks []task, lag *[]time.Duration, do func(t task, due time.Time)) {
	for _, t := range tasks {
		due := start.Add(t.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		*lag = append(*lag, time.Since(due))
		do(t, due)
	}
}

// ---------------------------------------------------------------------
// Writes

// person is the writer's shadow of one live local-geography entry.
type person struct {
	dn     dn.DN
	serial string
}

// shadow is the writers' model of the master's live local entries, so
// every write picks a live target and none fails by construction.
type shadow struct {
	people []person
	depts  []dn.DN
	seq    int
}

func newShadow(dir *workload.Directory) *shadow {
	s := &shadow{}
	for _, e := range dir.Employees {
		if e.Country == 0 {
			s.people = append(s.people, person{dn: e.DN, serial: e.Serial})
		}
	}
	for _, d := range dir.Departments {
		s.depts = append(s.depts, d.DN)
	}
	return s
}

// writeOp is one generated update: the wire call, the DN the master's
// journal records it under, and the shadow change applied on success.
type writeOp struct {
	target dn.DN
	send   func(cl *ldapnet.Client) error
	commit func()
}

// moveShare is the share of employee modifies that rewrite serialNumber
// into another quarter's block, moving the entry between fan-out leaf
// specs: E10 for one leaf group, E01 for another.
const moveShare = 0.2

var usDN = dn.MustParse("c=us," + workload.Suffix)

// next draws one update from the DefaultUpdateConfig mix, aimed at the
// local geography.
func (s *shadow) next(r *rand.Rand, w int) writeOp {
	cfg := workload.DefaultUpdateConfig()
	s.seq++
	seq := s.seq
	p := r.Float64()
	if len(s.people) < 2 {
		p = cfg.DeptModifyFraction + 0.001 // only adds refill an empty shadow
	}
	switch {
	case p < cfg.DeptModifyFraction:
		d := s.depts[r.Intn(len(s.depts))]
		return modifyOp(d, "description", fmt.Sprintf("department rev %d", seq), func() {})
	case p < cfg.DeptModifyFraction+cfg.AddFraction:
		block := r.Intn(400)
		serial := fmt.Sprintf("10%03d9%03d", block, seq%1000)
		cn := fmt.Sprintf("bench w%d n%d", w, seq)
		e := entry.New(usDN.Child(dn.RDN{Attr: "cn", Value: cn}))
		uid := fmt.Sprintf("b%08x", r.Uint32())
		e.Put("objectclass", "top", "person", "organizationalPerson", "inetOrgPerson")
		e.Put("cn", cn).Put("sn", fmt.Sprintf("sn%d", seq))
		e.Put("serialNumber", serial).Put("uid", uid).Put("mail", uid+"@us.xyz.com")
		return writeOp{target: e.DN(),
			send:   func(cl *ldapnet.Client) error { return cl.Add(e) },
			commit: func() { s.people = append(s.people, person{dn: e.DN(), serial: serial}) }}
	case p < cfg.DeptModifyFraction+cfg.AddFraction+cfg.DeleteFraction:
		i := r.Intn(len(s.people))
		target := s.people[i].dn
		return writeOp{target: target,
			send: func(cl *ldapnet.Client) error { return cl.Delete(target) },
			commit: func() {
				s.people[i] = s.people[len(s.people)-1]
				s.people = s.people[:len(s.people)-1]
			}}
	case p < cfg.DeptModifyFraction+cfg.AddFraction+cfg.DeleteFraction+cfg.RenameFraction:
		i := r.Intn(len(s.people))
		old := s.people[i].dn
		parent, _ := old.Parent()
		rdn := dn.RDN{Attr: "cn", Value: fmt.Sprintf("renamed w%d n%d", w, seq)}
		return writeOp{target: old,
			send:   func(cl *ldapnet.Client) error { return cl.ModifyDN(old, rdn, parent) },
			commit: func() { s.people[i].dn = parent.Child(rdn) }}
	default:
		i := r.Intn(len(s.people))
		target := s.people[i].dn
		if r.Float64() < moveShare {
			quarter := int(s.people[i].serial[2] - '0')
			to := (quarter + 1 + r.Intn(3)) % 4
			serial := fmt.Sprintf("10%03d8%03d", to*100+r.Intn(100), seq%1000)
			return modifyOp(target, "serialNumber", serial, func() { s.people[i].serial = serial })
		}
		return modifyOp(target, "telephoneNumber", fmt.Sprintf("%03d-%04d", seq%1000, r.Intn(10000)), func() {})
	}
}

func modifyOp(target dn.DN, attr, value string, commit func()) writeOp {
	ch := []proto.ModifyChange{{Op: proto.ModifyOpReplace, Attr: proto.Attribute{Type: attr, Values: []string{value}}}}
	return writeOp{target: target,
		send:   func(cl *ldapnet.Client) error { return cl.Modify(target, ch) },
		commit: commit}
}

// writeRec is one fixed-rate write as sent and acknowledged.
type writeRec struct {
	due, done time.Time
	target    string // normalized journal DN
	err       error
	span      uint64
}

// writer issues updates over one master connection.
type writer struct {
	id int
	cl *ldapnet.Client
	r  *rand.Rand
	sh *shadow
	tr *tracer
}

func (w *writer) do(due time.Time) writeRec {
	op := w.sh.next(w.r, w.id)
	rec := writeRec{due: due, target: op.target.Norm()}
	if w.tr != nil {
		rec.span = w.tr.newID()
		w.tr.write.Store(rec.span)
	}
	rec.err = op.send(w.cl)
	rec.done = time.Now()
	if w.tr != nil {
		w.tr.write.Store(0)
		w.tr.record(span{ID: rec.span, Name: "update", Start: w.tr.ns(due), End: w.tr.ns(rec.done), Err: rec.err != nil})
	}
	if rec.err == nil {
		op.commit()
	}
	return rec
}

// ---------------------------------------------------------------------
// Lookups

// lookupRec is one lookup as scheduled and completed.
type lookupRec struct {
	due, done time.Time
	referred  bool // missed at the leaf and followed its referral
	err       error
}

// looker sends Table 1 lookups to one leaf and chases misses through a
// referral resolver.
type looker struct {
	leaf *leaf
	cl   *ldapnet.Client
	res  *ldapnet.Resolver
	tr   *tracer
	// hits samples answered-at-the-leaf queries for the end-of-run
	// comparison with the master.
	hits  []query.Query
	nhits int
}

// hitSampleEvery and maxHitSamples bound the leaf hits kept for the
// end-of-run comparison with the master.
const (
	hitSampleEvery = 7
	maxHitSamples  = 64
)

func newLooker(l *leaf, masterAddr string, tr *tracer) (*looker, error) {
	cl, err := ldapnet.Dial(l.srv.Addr())
	if err != nil {
		return nil, err
	}
	res := ldapnet.NewResolver()
	res.Register("master", masterAddr)
	return &looker{leaf: l, cl: cl, res: res, tr: tr}, nil
}

func (lk *looker) close() {
	_ = lk.cl.Close()
	lk.res.Close()
}

func (lk *looker) do(q query.Query, due time.Time) lookupRec {
	rec := lookupRec{due: due}
	var id uint64
	if lk.tr != nil {
		id = lk.tr.newID()
		lk.tr.beginLookup(lk.leaf.name, q, id)
	}
	_, err := lk.cl.Search(q)
	var re *ldapnet.ResultError
	switch {
	case err == nil:
		lk.nhits++
		if lk.nhits%hitSampleEvery == 0 && len(lk.hits) < maxHitSamples {
			lk.hits = append(lk.hits, q)
		}
	case errors.As(err, &re) && re.Code == proto.ResultReferral && len(re.Referrals) > 0:
		rec.referred = true
		host, _, perr := ldapnet.ParseURL(re.Referrals[0])
		if perr != nil {
			err = perr
			break
		}
		_, err = lk.res.SearchChasing(host, q)
	}
	rec.err = err
	rec.done = time.Now()
	if lk.tr != nil {
		lk.tr.endLookup(lk.leaf.name, q)
		lk.tr.record(span{ID: id, Name: "lookup", Start: lk.tr.ns(due), End: lk.tr.ns(rec.done), Err: err != nil})
	}
	return rec
}

// hotBlocks ranks the local serial blocks by how often a training prefix
// of the trace looks them up and returns the n hottest prefixes.
func hotBlocks(train []workload.TraceQuery, n int) []string {
	counts := map[string]int{}
	for _, tq := range train {
		if tq.Kind != workload.KindSerial {
			continue
		}
		f := tq.Query.FilterString() // (serialNumber=<serial>)
		i := strings.IndexByte(f, '=')
		if i < 0 || len(f) < i+1+workload.SerialPrefixLen {
			continue
		}
		prefix := f[i+1 : i+1+workload.SerialPrefixLen]
		if strings.HasPrefix(prefix, "10") {
			counts[prefix]++
		}
	}
	type kv struct {
		k string
		v int
	}
	var all []kv
	for k, v := range counts {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	var out []string
	for i := 0; i < len(all) && i < n; i++ {
		out = append(out, all[i].k)
	}
	return out
}

// ---------------------------------------------------------------------
// Joins

// joinRec is one leaf joining the tier and departing.
type joinRec struct {
	took  time.Duration // supervisor.Start → Synced
	err   error
	span  uint64
	start time.Time
}

// joinOnce starts a one-spec leaf below the tier, waits for its initial
// transfer, then stops it the way cmd/ldapreplica shuts down.
func (c *cluster) joinOnce(i int, seed int64, bytes *byteCounter) joinRec {
	spec := quarterSpecs()[i%4]
	var rec joinRec
	if c.tr != nil {
		rec.span = c.tr.newID()
		c.tr.join.Store(rec.span)
	}
	l, err := c.startLeafWith(fmt.Sprintf("join%d", i), 2, []query.Query{spec}, false, seed+int64(i), bytes, &rec.start)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.err = waitSynced(l.links[0].sup, 30*time.Second)
	rec.took = time.Since(rec.start)
	if c.tr != nil {
		c.tr.join.Store(0)
		c.tr.record(span{ID: rec.span, Name: "join", Start: c.tr.ns(rec.start), End: c.tr.ns(rec.start.Add(rec.took)), Err: rec.err != nil})
	}
	l.stop()
	return rec
}

// ---------------------------------------------------------------------
// Journal join

// commitRec pairs a fixed-rate write with its journal record.
type commitRec struct {
	ch  dit.Change
	due time.Time
	w   *writeRec
}

// journalTap copies the master's journal records as they commit, so a
// window longer than the journal bound loses none of them.
type journalTap struct {
	st      *dit.Store
	next    dit.CSN
	changes []dit.Change
	err     error
	stop    chan struct{}
	done    chan struct{}
}

func tapJournal(st *dit.Store, every time.Duration) *journalTap {
	t := &journalTap{st: st, next: st.LastCSN(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.pull()
			}
		}
	}()
	return t
}

func (t *journalTap) pull() {
	if t.err != nil {
		return
	}
	ch, ok := t.st.ChangesSince(t.next)
	if !ok {
		t.err = fmt.Errorf("journal trimmed past CSN %d before it was read", t.next)
		return
	}
	if len(ch) > 0 {
		t.changes = append(t.changes, ch...)
		t.next = ch[len(ch)-1].CSN
	}
}

// close stops the tap and returns every record committed since it started.
func (t *journalTap) close() ([]dit.Change, error) {
	close(t.stop)
	<-t.done
	t.pull()
	return t.changes, t.err
}

// joinJournal pairs the successful writes of a single-writer window, in
// send order, with the journal records of that window, in CSN order.
func joinJournal(changes []dit.Change, recs []writeRec) ([]commitRec, error) {
	var out []commitRec
	k := 0
	for i := range recs {
		if recs[i].err != nil {
			continue
		}
		if k >= len(changes) {
			return nil, fmt.Errorf("write %d has no journal record", i)
		}
		ch := changes[k]
		if ch.DN.Norm() != recs[i].target {
			return nil, fmt.Errorf("journal CSN %d is %s %s, expected %s", ch.CSN, ch.Type, ch.DN, recs[i].target)
		}
		out = append(out, commitRec{ch: ch, due: recs[i].due, w: &recs[i]})
		k++
	}
	if k != len(changes) {
		return nil, fmt.Errorf("%d journal records without a matching write", len(changes)-k)
	}
	return out, nil
}

// stalenessFor computes, for one commit and one standing leaf, when the
// leaf had applied it: the latest first-covering watermark over the
// leaf's links whose spec holds the entry's before- or after-image.
func stalenessFor(ch dit.Change, l *leaf) (at time.Time, relevant, resolved bool) {
	for _, ln := range l.links {
		if !inSpec(ln.spec, ch.Before) && !inSpec(ln.spec, ch.After) {
			continue
		}
		relevant = true
		t, ok := ln.reachedAt(uint64(ch.CSN))
		if !ok {
			return time.Time{}, true, false
		}
		if t.After(at) {
			at = t
		}
	}
	return at, relevant, relevant
}
