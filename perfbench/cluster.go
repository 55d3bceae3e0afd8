package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"filterdir/internal/cascade"
	"filterdir/internal/dit"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/supervisor"
	"filterdir/internal/workload"
)

// indexAttrs are the content indexes every replica keeps, as
// cmd/ldapreplica does.
var indexAttrs = []string{"serialnumber", "mail", "dept", "location", "uid"}

// localSpec is the tier's content: the local geography, country 0 of the
// synthetic directory (serial numbers 10xxxxxxx).
var localSpec = query.MustNew("", query.ScopeSubtree, "(serialnumber=10*)")

// specOf returns the spec of all entries whose serial starts with prefix.
func specOf(prefix string) query.Query {
	return query.MustNew("", query.ScopeSubtree, "(serialnumber="+prefix+"*)")
}

// quarterSpecs are the four fan-out leaf specs (serialnumber=10d*), d=0..3,
// which split the local geography's 400 serial blocks into quarters.
func quarterSpecs() []query.Query {
	qs := make([]query.Query, 4)
	for d := range qs {
		qs[d] = specOf(fmt.Sprintf("10%d", d))
	}
	return qs
}

// inSpec reports whether an entry image lies in a spec's content.
func inSpec(q query.Query, e *entry.Entry) bool {
	return e != nil && q.InScope(e.DN()) && (q.Filter == nil || q.Filter.Matches(e))
}

// byteCounter counts the bytes a set of connections reads.
type byteCounter struct{ n atomic.Int64 }

type countingConn struct {
	net.Conn
	c *byteCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.n.Add(int64(n))
	return n, err
}

// dial is a supervisor transport that counts bytes read.
func (b *byteCounter) dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: b}, nil
}

// wmEvent is one OnWatermark report: when the supervisor had applied the
// upstream journal up to csn.
type wmEvent struct {
	at  time.Time
	csn uint64
}

// link is one leaf supervisor with its spec and watermark log.
type link struct {
	spec query.Query
	sup  *supervisor.Supervisor
	mu   sync.Mutex
	wm   []wmEvent
	// applied and exchanges feed supervisor.updates_per_exchange.
	applied, exchanges atomic.Int64
}

func (l *link) onWatermark(csn uint64) {
	now := time.Now()
	l.mu.Lock()
	l.wm = append(l.wm, wmEvent{at: now, csn: csn})
	l.mu.Unlock()
}

func (l *link) onApplied(n int) {
	l.applied.Add(int64(n))
	l.exchanges.Add(1)
}

// reachedAt returns when the link's watermark first covered csn.
func (l *link) reachedAt(csn uint64) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// A linear scan: watermarks may regress after a fallback, so the log
	// is in time order but not in CSN order.
	for _, ev := range l.wm {
		if ev.csn >= csn {
			return ev.at, true
		}
	}
	return time.Time{}, false
}

// leaf is one filter replica with a supervisor per spec, served over TCP
// when it answers lookups.
type leaf struct {
	name  string
	hop   int // 1 = below the master, 2 = below the tier
	rep   *replica.FilterReplica
	links []*link
	srv   *ldapnet.Server
}

// holds reports whether an entry image lies in one of the leaf's specs.
func (l *leaf) holds(e *entry.Entry) bool {
	for _, ln := range l.links {
		if inSpec(ln.spec, e) {
			return true
		}
	}
	return false
}

// applied reports whether the leaf's content reflects ch: it holds the
// after-image when that is in its specs, and otherwise no in-spec entry
// at the old name.
func (l *leaf) applied(ch dit.Change) bool {
	if l.holds(ch.After) {
		e, ok := l.rep.Store().Get(ch.After.DN())
		return ok && e.Equal(ch.After)
	}
	e, ok := l.rep.Store().Get(ch.DN)
	return !ok || !l.holds(e)
}

func (l *leaf) stop() {
	if l.srv != nil {
		_ = l.srv.Close()
	}
	for _, ln := range l.links {
		_ = ln.sup.Stop()
	}
}

// cluster is the running topology: master, one mid-tier, and leaves.
type cluster struct {
	p   params
	dir *workload.Directory

	masterBE   *ldapnet.StoreBackend
	masterSrv  *ldapnet.Server
	masterAddr string
	tier       *cascade.Tier
	tierSrv    *ldapnet.Server
	tierAddr   string

	hop1, hop2 byteCounter // bytes read by replicas below the master / the tier
	leaves     []*leaf     // standing leaves, in creation order
	tr         *tracer     // nil in untraced runs
}

// masterURL is the referral target replicas hand out for misses.
const masterURL = "ldap://master"

// setUp builds the directory, fills the master's journal, serves it and
// attaches the tier, waiting for its initial transfer. Leaves are added by
// the workload.
func setUp(p params, seed int64, tr *tracer) (*cluster, error) {
	c := &cluster{p: p, tr: tr}
	// The directory is the fixed set-up (DefaultDirectoryConfig's own
	// seed); the workload seed drives the traffic.
	dcfg := workload.DefaultDirectoryConfig(p.employees)
	dcfg.JournalLimit = p.journal
	dir, err := workload.BuildDirectory(dcfg)
	if err != nil {
		return nil, err
	}
	c.dir = dir
	c.masterBE = ldapnet.NewStoreBackend(dir.Master)
	var be ldapnet.Backend = c.masterBE
	if tr != nil {
		be = &tracedMaster{StoreBackend: c.masterBE, tr: tr}
	}
	if c.masterSrv, err = ldapnet.Serve("127.0.0.1:0", be); err != nil {
		return nil, err
	}
	c.masterAddr = c.masterSrv.Addr()
	if err := c.fillJournal(seed); err != nil {
		c.tearDown()
		return nil, err
	}

	c.tier, err = cascade.New(cascade.Config{
		Upstream:       c.masterAddr,
		Specs:          []query.Query{localSpec},
		Mode:           supervisor.ModePersist,
		JournalLimit:   p.journal,
		ContentIndexes: indexAttrs,
		Seed:           seed,
		Dial:           c.hop1.dial,
	})
	if err != nil {
		c.tearDown()
		return nil, err
	}
	c.tier.Start()
	var sup ldapnet.SyncSupplier = c.tier
	if tr != nil {
		sup = &tracedTier{Tier: c.tier, tr: tr}
	}
	if c.tierSrv, err = ldapnet.Serve("127.0.0.1:0", ldapnet.NewCascadeBackend(c.tier.Replica(), sup, masterURL)); err != nil {
		c.tearDown()
		return nil, err
	}
	c.tierAddr = c.tierSrv.Addr()
	for _, s := range c.tier.Supervisors() {
		if err := waitSynced(s, 60*time.Second); err != nil {
			c.tearDown()
			return nil, fmt.Errorf("tier: %w", err)
		}
	}
	return c, nil
}

// fillJournal commits journal+64 telephone-number modifies straight into
// the master store before the tier attaches, so the master's journal is at
// its bound when timing starts. The tier's journal reaches its bound
// through its initial transfer (6,000 local entries, one record each).
func (c *cluster) fillJournal(seed int64) error {
	r := rand.New(rand.NewSource(seed ^ 0x66696c6c))
	for i := 0; i < c.p.journal+64; i++ {
		emp := c.dir.Employees[r.Intn(len(c.dir.Employees))]
		err := c.dir.Master.Modify(emp.DN, []dit.Mod{{Op: dit.ModReplace, Attr: "telephoneNumber",
			Values: []string{fmt.Sprintf("fill-%d", i)}}})
		if err != nil {
			return fmt.Errorf("journal fill: %w", err)
		}
	}
	return nil
}

func waitSynced(s *supervisor.Supervisor, timeout time.Duration) error {
	select {
	case <-s.Synced():
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("supervisor not synced after %s", timeout)
	}
}

// startLeafWith builds a replica with one persist-mode supervisor per
// spec, below the master (hop 1) or the tier (hop 2), counting the bytes
// its supervisors read into bytes and serving lookups over TCP when serve
// is set. started receives the time the supervisors were started; it does
// not wait for the initial transfer.
func (c *cluster) startLeafWith(name string, hop int, specs []query.Query, serve bool, seed int64, bytes *byteCounter, started *time.Time) (*leaf, error) {
	rep, err := replica.NewFilterReplica(replica.WithContentIndexes(indexAttrs...))
	if err != nil {
		return nil, err
	}
	l := &leaf{name: name, hop: hop, rep: rep}
	upstream := c.tierAddr
	if hop == 1 {
		upstream = c.masterAddr
	}
	for i, spec := range specs {
		ln := &link{spec: spec.Normalize()}
		sup, err := supervisor.New(supervisor.Config{
			Master:      upstream,
			Spec:        spec,
			Mode:        supervisor.ModePersist,
			Seed:        seed + int64(i),
			Dial:        bytes.dial,
			OnWatermark: ln.onWatermark,
			OnApplied:   ln.onApplied,
		}, rep)
		if err != nil {
			return nil, err
		}
		ln.sup = sup
		l.links = append(l.links, ln)
	}
	if serve {
		var be ldapnet.Backend = ldapnet.NewReplicaBackend(rep, masterURL)
		if c.tr != nil {
			be = &tracedLeaf{ReplicaBackend: be.(*ldapnet.ReplicaBackend), tr: c.tr, name: name}
		}
		if l.srv, err = ldapnet.Serve("127.0.0.1:0", be); err != nil {
			return nil, err
		}
	}
	*started = time.Now()
	for _, ln := range l.links {
		ln.sup.Start()
	}
	return l, nil
}

// addStanding starts a standing leaf and waits for its initial transfer.
func (c *cluster) addStanding(name string, hop int, specs []query.Query, serve bool, seed int64) (*leaf, error) {
	bytes := &c.hop2
	if hop == 1 {
		bytes = &c.hop1
	}
	var started time.Time
	l, err := c.startLeafWith(name, hop, specs, serve, seed, bytes, &started)
	if err != nil {
		return nil, err
	}
	c.leaves = append(c.leaves, l)
	for _, ln := range l.links {
		if err := waitSynced(ln.sup, 60*time.Second); err != nil {
			return nil, fmt.Errorf("leaf %s: %w", name, err)
		}
	}
	return l, nil
}

// tierSessions counts the downstream sessions standing leaves hold at the
// tier (one per hop-2 supervisor).
func (c *cluster) tierSessions() int {
	n := 0
	for _, l := range c.leaves {
		if l.hop == 2 {
			n += len(l.links)
		}
	}
	return n
}

// allLinks lists every standing leaf supervisor link.
func (c *cluster) allLinks() []*link {
	var out []*link
	for _, l := range c.leaves {
		out = append(out, l.links...)
	}
	return out
}

// streamBreaks sums persist-stream fallbacks, reconnects and demotions
// over the tier's and the standing leaves' supervisors.
func (c *cluster) streamBreaks() int64 {
	var n int64
	sups := c.tier.Supervisors()
	for _, ln := range c.allLinks() {
		sups = append(sups, ln.sup)
	}
	for _, s := range sups {
		snap := s.Counters().Snapshot()
		n += snap.Fallbacks + snap.Reconnects + snap.Demotions
	}
	return n
}

func (c *cluster) tearDown() {
	for _, l := range c.leaves {
		l.stop()
	}
	if c.tierSrv != nil {
		_ = c.tierSrv.Close()
	}
	if c.tier != nil {
		_ = c.tier.Stop()
	}
	if c.masterSrv != nil {
		_ = c.masterSrv.Close()
	}
}

// journalAtBound reports whether a store's journal holds exactly its
// bound: the last bound records are present and the one before is gone.
func journalAtBound(s *dit.Store, bound int) bool {
	last := s.LastCSN()
	if int(last) <= bound {
		return false
	}
	ch, ok := s.ChangesSince(last - dit.CSN(bound))
	if !ok || len(ch) != bound {
		return false
	}
	_, older := s.ChangesSince(last - dit.CSN(bound) - 1)
	return !older
}

// compareContent compares a replica store's entries for spec with the
// master's, entry for entry; it returns "" when they match and otherwise a
// short description of the first difference.
func compareContent(master, rep *dit.Store, spec query.Query) string {
	if d := sameEntries(rep.MatchAll(spec), master.MatchAll(spec)); d != "" {
		return spec.FilterString() + ": " + d
	}
	return ""
}
