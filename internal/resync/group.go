package resync

import (
	"sort"
	"sync"
	"sync/atomic"

	"filterdir/internal/containment"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// Content-group fan-out (DESIGN.md §10). Sessions whose (base, scope,
// filter) triples are equal — or provably equivalent via the containment
// checker — share a content group. Classifying a change interval reads only
// the spec and the journal records in it (computeInterval), so every member
// crossing the same interval gets the same result; the group caches that
// classification and each member just takes it, keeping its own generation
// cookies and sync-point history.
// Attribute selection stays per-session: members are sub-grouped into
// views (one per distinct attrs list) and the selected update batch is
// built once per view.

// contentKey canonicalizes the part of a spec that determines content
// membership — attrs are a per-session presentation concern.
func contentKey(q query.Query) string {
	n := stripAttrs(q).Normalize()
	return n.Base.Norm() + "\x00" + n.Scope.String() + "\x00" + n.FilterString()
}

// regionKey canonicalizes a spec's base/scope region. Two specs can only be
// content-equivalent if their regions contain each other, and mutual
// ScopeContains holds exactly for an identical normalized (base, scope) —
// so the equivalence probe in joinGroup need only consider groups sharing
// this key, instead of running the containment checker against every group.
func regionKey(q query.Query) string {
	return q.Base.Norm() + "\x00" + q.Scope.String()
}

// viewKey canonicalizes an attribute selection within a group.
func viewKey(attrs []string) string {
	if len(attrs) == 0 {
		return "*"
	}
	sorted := make([]string, len(attrs))
	copy(sorted, attrs)
	sort.Strings(sorted)
	key := ""
	for i, a := range sorted {
		if i > 0 {
			key += ","
		}
		key += a
	}
	return key
}

// equivalentSpecs reports whether two specs denote the same content: their
// base/scope regions contain each other and their filters contain each
// other (both decided by the paper's containment machinery).
func (e *Engine) equivalentSpecs(a, b query.Query) bool {
	return containment.ScopeContains(a, b) && containment.ScopeContains(b, a) &&
		e.checker.FilterContains(a.Filter, b.Filter) &&
		e.checker.FilterContains(b.Filter, a.Filter)
}

// rawUpdate is one classified net change before attribute selection: add
// and modify carry the full-attribute final entry (plus, for modify, the
// start-of-interval snapshot that the per-view suppression check needs);
// delete carries only the DN the replica holds.
type rawUpdate struct {
	action Action
	dn     dn.DN
	ent    *entry.Entry
	prior  *entry.Entry
}

// viewBatch is the update set of one interval as seen through one
// attribute selection, plus its shared wire-encoding memo.
type viewBatch struct {
	updates    []Update
	suppressed int64
	enc        *SharedEnc
}

// sharedInterval is one classified change interval (fromCSN → toCSN),
// computed once per group and consumed by every member that crosses it.
type sharedInterval struct {
	from, to dit.CSN
	raws     []rawUpdate

	mu    sync.Mutex
	views map[string]*viewBatch
}

// view returns the interval's update batch under one attribute selection,
// building (and memoizing) it on first use.
func (si *sharedInterval) view(key string, attrs []string) *viewBatch {
	si.mu.Lock()
	defer si.mu.Unlock()
	if vb, ok := si.views[key]; ok {
		return vb
	}
	vb := &viewBatch{enc: &SharedEnc{}}
	for _, r := range si.raws {
		switch r.action {
		case ActionAdd:
			sel := r.ent.Select(attrs)
			vb.updates = append(vb.updates, Update{Action: ActionAdd, DN: sel.DN(), Entry: sel})
		case ActionDelete:
			vb.updates = append(vb.updates, Update{Action: ActionDelete, DN: r.dn})
		case ActionModify:
			sel := r.ent.Select(attrs)
			// Minimal update set (equation 3): an entry whose selected view
			// is net-unchanged over the interval — modify-then-revert, or
			// modifies confined to unselected attributes — produces no PDU.
			if r.prior != nil {
				pv := r.prior.Select(attrs)
				if pv.Equal(sel) && pv.DN().SameSpelling(sel.DN()) {
					vb.suppressed++
					continue
				}
			}
			vb.updates = append(vb.updates, Update{Action: ActionModify, DN: sel.DN(), Entry: sel})
		}
	}
	si.views[key] = vb
	return vb
}

// maxSharedIntervals bounds the per-group interval cache. Members of one
// group poll at similar cadence, so they cross the same few intervals; a
// straggler beyond the window just classifies its own (larger) interval.
const maxSharedIntervals = 8

// group is one shared-content fan-out unit.
type group struct {
	e      *Engine
	key    string      // content key of the founding member
	region string      // base/scope region key, for the engine's region index
	spec   query.Query // founding spec, attrs stripped

	// cycleMu is held by the broadcaster for the span of one update cycle;
	// Subscription.Close takes it (empty) so that after Close returns the
	// broadcaster is provably not mid-sync on the closed stream's session.
	cycleMu sync.Mutex

	// served counts update PDUs classified for this group's members — a
	// live demand signal the tier control plane reads through GroupLoads.
	served atomic.Uint64

	mu        sync.Mutex
	members   int
	aliasKeys []string // every content key resolved to this group
	intervals []*sharedInterval

	// Persist broadcaster state: one goroutine per group pushes update
	// batches to all subscribers; it runs only while subscribers exist.
	subs  map[*Subscription]*subscriber
	wake  chan struct{}
	bstop chan struct{}
	bdone chan struct{}
}

// subscriber is one persist-mode member stream with its bounded queue.
type subscriber struct {
	sub    *Subscription
	sess   *session
	ch     chan Batch
	missed int // consecutive cycles skipped because ch was full
}

func newGroup(e *Engine, key string, spec query.Query) *group {
	return &group{
		e:    e,
		key:  key,
		spec: spec,
		subs: make(map[*Subscription]*subscriber),
		wake: make(chan struct{}, 1),
	}
}

// joinGroup finds or creates the content group for spec and adds a member.
// Returns nil when grouping is disabled.
func (e *Engine) joinGroup(spec query.Query) *group {
	if !e.grouping {
		return nil
	}
	key := contentKey(spec)
	rkey := regionKey(spec)
	e.groupMu.Lock()
	g := e.aliases[key]
	equiv := false
	if g == nil {
		// No identical group: probe same-region groups for provable filter
		// equivalence, so e.g. (&(a=1)(b=2)) joins (&(b=2)(a=1)). The
		// region index keeps this proportional to groups over the same
		// base/scope rather than all groups, since the containment checks
		// run under groupMu on every first-of-its-key Begin.
		for _, cand := range e.regions[rkey] {
			if e.equivalentSpecs(spec, cand.spec) {
				g = cand
				equiv = true
				break
			}
		}
		if g != nil {
			e.aliases[key] = g
			g.aliasKeys = append(g.aliasKeys, key)
		}
	}
	if g == nil {
		g = newGroup(e, key, stripAttrs(spec))
		g.aliasKeys = []string{key}
		g.region = rkey
		e.groups[key] = g
		e.aliases[key] = g
		e.regions[rkey] = append(e.regions[rkey], g)
	}
	g.mu.Lock()
	g.members++
	g.mu.Unlock()
	e.groupMu.Unlock()
	e.stats.GroupJoins.Add(1)
	if equiv {
		e.stats.GroupEquivJoins.Add(1)
	}
	return g
}

// leaveGroup removes a member; the last member out frees the group's
// cached state and stops its broadcaster.
func (e *Engine) leaveGroup(g *group) {
	if g == nil {
		return
	}
	e.groupMu.Lock()
	g.mu.Lock()
	g.members--
	last := g.members == 0
	if last {
		for _, k := range g.aliasKeys {
			delete(e.aliases, k)
		}
		delete(e.groups, g.key)
		peers := e.regions[g.region]
		for i, cand := range peers {
			if cand == g {
				peers[i] = peers[len(peers)-1]
				peers = peers[:len(peers)-1]
				break
			}
		}
		if len(peers) == 0 {
			delete(e.regions, g.region)
		} else {
			e.regions[g.region] = peers
		}
		g.intervals = nil
		g.stopLocked()
	}
	g.mu.Unlock()
	e.groupMu.Unlock()
	e.stats.GroupLeaves.Add(1)
}

// Groups reports the number of live content groups — an operator gauge and
// a test probe for last-member teardown.
func (e *Engine) Groups() int {
	e.groupMu.Lock()
	defer e.groupMu.Unlock()
	return len(e.groups)
}

// GroupLoad is one content group's live demand snapshot: its founding spec
// (attrs stripped), current membership, and cumulative update PDUs
// classified for it. The tier control plane folds these into its benefit
// accounting — a group that keeps serving updates to members is demand the
// covering stored filter should be credited for.
type GroupLoad struct {
	Spec    query.Query
	Members int
	Updates uint64
}

// GroupLoads snapshots every live content group's demand counters.
func (e *Engine) GroupLoads() []GroupLoad {
	e.groupMu.Lock()
	defer e.groupMu.Unlock()
	out := make([]GroupLoad, 0, len(e.groups))
	for _, g := range e.groups {
		g.mu.Lock()
		members := g.members
		g.mu.Unlock()
		out = append(out, GroupLoad{Spec: g.spec, Members: members, Updates: g.served.Load()})
	}
	return out
}

// lookupInterval returns the cached classification for [from, to], if any.
func (g *group) lookupInterval(from, to dit.CSN) *sharedInterval {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, si := range g.intervals {
		if si.from == from && si.to == to {
			return si
		}
	}
	return nil
}

// storeInterval caches a classification, keeping the first result when two
// members raced on the same interval.
func (g *group) storeInterval(si *sharedInterval) *sharedInterval {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, have := range g.intervals {
		if have.from == si.from && have.to == si.to {
			return have
		}
	}
	g.intervals = append(g.intervals, si)
	if len(g.intervals) > maxSharedIntervals {
		g.intervals = g.intervals[1:]
	}
	return si
}

// classifyFor produces one session's update batch for a change interval:
// the raw classification is computed once per group (or inline for
// ungrouped engines) and the attribute-selected batch comes from the
// per-view overlay. The caller holds sess.mu.
func (e *Engine) classifyFor(sess *session, changes []dit.Change) ([]Update, *SharedEnc) {
	if len(changes) == 0 {
		return nil, nil
	}
	g := sess.group
	var si *sharedInterval
	if g == nil {
		si = computeInterval(sess.spec, changes)
	} else {
		from, to := sess.csn, changes[len(changes)-1].CSN
		if si = g.lookupInterval(from, to); si != nil {
			e.stats.SharedClassifyHits.Add(1)
		} else {
			si = computeInterval(g.spec, changes)
			si.from, si.to = from, to
			si = g.storeInterval(si)
			e.stats.SharedClassifyMisses.Add(1)
		}
	}
	vb := si.view(sess.viewKey, sess.spec.Attrs)
	if vb.suppressed > 0 {
		e.stats.SuppressedModifies.Add(vb.suppressed)
	}
	if g == nil {
		return vb.updates, nil
	}
	g.served.Add(uint64(len(vb.updates)))
	return vb.updates, vb.enc
}

// touchedImages maps every DN the journal records touch, by normalized
// DN, to its entry as it stood before the first of them and after the last
// (nil where the DN held no entry). The first record's Before image is the
// start-of-interval entry: an add has none, nor has the new DN of a
// modifyDN, and the store refuses both on a DN that exists, so a DN first
// touched that way was absent.
func touchedImages(changes []dit.Change) (first, last map[string]*entry.Entry) {
	first = make(map[string]*entry.Entry)
	last = make(map[string]*entry.Entry)
	touch := func(d dn.DN, before, after *entry.Entry) {
		norm := d.Norm()
		if _, seen := first[norm]; !seen {
			first[norm] = before
		}
		last[norm] = after
	}
	for _, c := range changes {
		switch c.Type {
		case dit.ChangeAdd, dit.ChangeModify:
			touch(c.DN, c.Before, c.After)
		case dit.ChangeDelete:
			touch(c.DN, c.Before, nil)
		case dit.ChangeModifyDN:
			touch(c.DN, c.Before, nil)
			touch(c.NewDN, nil, c.After)
		}
	}
	return first, last
}

// computeInterval classifies every DN the journal changes touch to its net
// E01/E10/E11 action over the interval. Start-of-interval membership comes
// from the journal itself: a DN was in the content exactly when the spec
// matches its entry before the interval's first record touching it. The
// result depends only on the spec and the records, so it is valid for
// every session of the spec crossing the same interval.
func computeInterval(spec query.Query, changes []dit.Change) *sharedInterval {
	first, last := touchedImages(changes)
	si := &sharedInterval{views: make(map[string]*viewBatch)}
	norms := make([]string, 0, len(first))
	for norm := range first {
		norms = append(norms, norm)
	}
	sort.Strings(norms)
	for _, norm := range norms {
		prior, ent := first[norm], last[norm]
		switch was, is := spec.Matches(prior), spec.Matches(ent); {
		case !was && is:
			si.raws = append(si.raws, rawUpdate{action: ActionAdd, ent: ent})
		case was && !is:
			// The delete names the DN as the replica holds it.
			si.raws = append(si.raws, rawUpdate{action: ActionDelete, dn: prior.DN()})
		case was && is:
			si.raws = append(si.raws, rawUpdate{action: ActionModify, ent: ent, prior: prior})
		}
	}
	return si
}

// attach adds a persist subscriber to the group, starting the broadcaster
// if it is not running, and kicks a cycle so a stream resumed behind the
// head receives its due batch promptly.
func (g *group) attach(sess *session) *Subscription {
	ch := make(chan Batch, g.e.persistQueueCap)
	sub := &Subscription{Updates: ch}
	st := &subscriber{sub: sub, sess: sess, ch: ch}
	sub.detach = func() {
		g.remove(sub)
		// Barrier: wait out any in-flight update cycle so the session is
		// quiescent once Close returns (matching the old per-stream
		// goroutine join).
		g.cycleMu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier
		g.cycleMu.Unlock()
	}
	g.mu.Lock()
	g.subs[sub] = st
	if g.bstop == nil {
		// Join the previous broadcaster (if a stop is still in flight)
		// before starting its replacement, so one group never runs two
		// broadcasters — syncOne's non-blocking queue send relies on being
		// the only sender observing free space.
		join := g.bdone
		stop := make(chan struct{})
		done := make(chan struct{})
		g.bstop, g.bdone = stop, done
		g.mu.Unlock()
		if join != nil {
			<-join
		}
		go g.broadcast(stop, done)
	} else {
		g.mu.Unlock()
	}
	g.kick()
	return sub
}

// remove detaches a subscriber and closes its channel; the last subscriber
// out stops the broadcaster.
func (g *group) remove(sub *Subscription) {
	g.mu.Lock()
	g.removeLocked(sub)
	g.mu.Unlock()
}

func (g *group) removeLocked(sub *Subscription) {
	st, ok := g.subs[sub]
	if !ok {
		return
	}
	delete(g.subs, sub)
	close(st.ch)
	if len(g.subs) == 0 {
		g.stopLocked()
	}
}

// stopLocked stops the broadcaster (if running) and closes any remaining
// subscriber channels; the caller holds g.mu. bdone is deliberately kept:
// the stopping broadcaster closes it on exit, and the next attach waits on
// it before starting a replacement (single-broadcaster invariant).
func (g *group) stopLocked() {
	for sub, st := range g.subs {
		delete(g.subs, sub)
		close(st.ch)
	}
	if g.bstop != nil {
		close(g.bstop)
		g.bstop = nil
	}
}

// kick nudges the broadcaster outside the store's change signal, e.g. for
// a freshly attached subscriber.
func (g *group) kick() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// broadcast is the group's persist fan-out loop: on every store commit (or
// kick) it runs one update cycle over all subscribers. The change signal is
// armed before the cycle so commits landing mid-cycle are not missed.
func (g *group) broadcast(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		sig := g.e.store.ChangeSignal()
		g.cycle()
		select {
		case <-sig:
		case <-g.wake:
		case <-stop:
			return
		}
	}
}

// cycle synchronizes every subscriber once. The shared-interval cache
// makes this one real classification plus a cache lookup per member.
func (g *group) cycle() {
	g.cycleMu.Lock()
	defer g.cycleMu.Unlock()
	g.mu.Lock()
	subs := make([]*subscriber, 0, len(g.subs))
	for _, st := range g.subs {
		subs = append(subs, st)
	}
	g.mu.Unlock()
	for _, st := range subs {
		g.syncOne(st)
	}
}

// syncOne advances one subscriber by one poll and queues the batch.
//
// Slow-consumer policy: a subscriber whose queue is full is skipped — its
// session stays at its old sync point, so the next successful cycle emits
// one net batch covering the whole backlog (coalescing, not buffering).
// After demoteAfter consecutive skips the stream is closed and the
// consumer falls back to poll mode (the wire maps this to a clean stream
// end; the session itself stays resumable by cookie).
func (g *group) syncOne(st *subscriber) {
	e := g.e
	g.mu.Lock()
	if _, live := g.subs[st.sub]; !live {
		g.mu.Unlock()
		return
	}
	if len(st.ch) == cap(st.ch) {
		st.missed++
		e.stats.CoalescedCycles.Add(1)
		if st.missed >= e.demoteAfter {
			e.stats.SlowDemotions.Add(1)
			g.removeLocked(st.sub)
		}
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()

	st.sess.mu.Lock()
	if st.sess.ended {
		st.sess.mu.Unlock()
		g.remove(st.sub)
		return
	}
	res, ok := e.poll(st.sess)
	st.sess.mu.Unlock()
	if !ok {
		// The journal no longer covers the stream position, and a push
		// stream cannot convey a reload: end it with the session untouched,
		// so the consumer's fallback poll computes the one reload.
		g.remove(st.sub)
		return
	}
	st.missed = 0
	if len(res.Updates) == 0 {
		return
	}
	batch := Batch{Updates: res.Updates, Cookie: res.Cookie, CSN: res.CSN, Enc: res.Enc}
	g.mu.Lock()
	if _, live := g.subs[st.sub]; live {
		// Space was observed above and this goroutine is the only sender,
		// so the send cannot block.
		select {
		case st.ch <- batch:
		default:
		}
	}
	g.mu.Unlock()
}
