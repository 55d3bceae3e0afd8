package supervisor

import (
	"fmt"
	"net"
	"testing"
	"time"

	"filterdir/internal/chaos"
	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/ldapnet"
	"filterdir/internal/query"
	"filterdir/internal/replica"
	"filterdir/internal/resync"
)

// newMasterStore builds a small master directory with entries matching the
// test spec (serialnumber=04*).
func newMasterStore(t *testing.T) *dit.Store {
	t.Helper()
	st, err := dit.NewStore([]string{"o=xyz"}, dit.WithIndexes("serialnumber"))
	if err != nil {
		t.Fatal(err)
	}
	org := entry.New(dn.MustParse("o=xyz"))
	org.Put("objectclass", "organization").Put("o", "xyz")
	if err := st.Add(org); err != nil {
		t.Fatal(err)
	}
	us := entry.New(dn.MustParse("c=us,o=xyz"))
	us.Put("objectclass", "country").Put("c", "us")
	if err := st.Add(us); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.Add(personEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func personEntry(i int) *entry.Entry {
	e := entry.New(dn.MustParse(fmt.Sprintf("cn=p%d,c=us,o=xyz", i)))
	e.Put("objectclass", "person", "inetOrgPerson").
		Put("cn", fmt.Sprintf("p%d", i)).Put("sn", "x").
		Put("serialNumber", fmt.Sprintf("04%02d", i))
	return e
}

// harness bundles a chaos-wrapped master and its sync engine counters.
type harness struct {
	store   *dit.Store
	backend *ldapnet.StoreBackend
	srv     *ldapnet.Server
	inj     *chaos.Injector
	spec    query.Query
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	st := newMasterStore(t)
	backend := ldapnet.NewStoreBackend(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Plan{}) // faults off until the test arms them
	srv := ldapnet.ServeListener(inj.Listener(ln), backend)
	t.Cleanup(func() { _ = srv.Close() })
	return &harness{
		store:   st,
		backend: backend,
		srv:     srv,
		inj:     inj,
		spec:    query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=04*)"),
	}
}

func (h *harness) config(t *testing.T) Config {
	t.Helper()
	return Config{
		Master:       h.srv.Addr(),
		Spec:         h.spec,
		PollInterval: 3 * time.Millisecond,
		BackoffBase:  time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		DialTimeout:  2 * time.Second,
		Seed:         1,
		Dial:         h.inj.Dial(nil),
		Logf:         t.Logf,
	}
}

func startSupervisor(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup, err := New(cfg, rep)
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	t.Cleanup(func() { _ = sup.Stop() })
	return sup
}

func waitSynced(t *testing.T, sup *Supervisor) {
	t.Helper()
	select {
	case <-sup.Synced():
	case <-time.After(10 * time.Second):
		t.Fatalf("supervisor never finished its first exchange (state %s)", sup.State())
	}
}

func waitConverged(t *testing.T, h *harness, sup *Supervisor, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok, why := resync.Converged(h.store, sup.rep.Store(), h.spec)
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica did not converge: %s", why)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitCounter(t *testing.T, what string, timeout time.Duration, load func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mutate(t *testing.T, st *dit.Store, round int) {
	t.Helper()
	// Modify an existing person, add a new one, delete another — all
	// inside the replicated content.
	d := dn.MustParse("cn=p1,c=us,o=xyz")
	if err := st.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: "sn", Values: []string{fmt.Sprintf("r%d", round)}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(personEntry(100 + round)); err != nil {
		t.Fatal(err)
	}
	if round > 0 {
		if err := st.Delete(dn.MustParse(fmt.Sprintf("cn=p%d,c=us,o=xyz", 99+round))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConvergesUnderDropsAndRestart is the acceptance scenario: with
// connection drops injected every N I/O operations and one forced replica
// restart mid-session, the replica converges to master content using
// resume-polls — zero full reloads and exactly one Begin on the master,
// across both supervisor incarnations.
func TestConvergesUnderDropsAndRestart(t *testing.T) {
	h := newHarness(t)
	stateDir := t.TempDir()
	cfg := h.config(t)
	cfg.StateDir = stateDir

	sup := startSupervisor(t, cfg)
	waitSynced(t, sup)

	// Arm the chaos plan only after the initial Begin completed, so the
	// "one Begin" assertion is deterministic.
	h.inj.SetPlan(chaos.Plan{Seed: 7, DropEveryNOps: 30})

	for round := 0; round < 4; round++ {
		mutate(t, h.store, round)
		time.Sleep(15 * time.Millisecond)
	}
	// Make sure drops actually hit live exchanges before the restart.
	waitCounter(t, "reconnects", 10*time.Second,
		func() int64 { return sup.Counters().Reconnects.Load() }, 1)
	waitConverged(t, h, sup, 15*time.Second)

	// Forced restart mid-session: stop (checkpointing), mutate while the
	// replica is down, then bring up a fresh incarnation on the same
	// state directory.
	if err := sup.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	mutate(t, h.store, 4)

	sup2 := startSupervisor(t, cfg)
	waitSynced(t, sup2)
	if got := sup2.Counters().Resumes.Load(); got < 1 {
		t.Errorf("restarted supervisor resumed %d times, want >= 1", got)
	}
	mutate(t, h.store, 5)
	waitConverged(t, h, sup2, 15*time.Second)

	eng := h.backend.Engine.Counters().Snapshot()
	if eng.Begins != 1 {
		t.Errorf("master begins = %d, want exactly 1 (restart + drops must resume, not re-begin)", eng.Begins)
	}
	if eng.FullReloads != 0 {
		t.Errorf("master full reloads = %d, want 0", eng.FullReloads)
	}
	if eng.Polls < 2 {
		t.Errorf("master polls = %d, want >= 2 (resume-polls drive recovery)", eng.Polls)
	}
	if drops := h.inj.Stats().Drops; drops == 0 {
		t.Error("chaos injected no drops; the scenario did not exercise failure")
	}
	if got := sup2.Cookie(); got == "" {
		t.Error("supervisor lost its session cookie")
	}
}

// TestStaleSessionReBegins verifies the typed wire error path: when the
// master forgets the session, the supervisor re-Begins instead of
// retrying the dead cookie or crashing.
func TestStaleSessionReBegins(t *testing.T) {
	h := newHarness(t)
	sup := startSupervisor(t, h.config(t))
	waitSynced(t, sup)

	if err := h.backend.Engine.End(sup.Cookie()); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, "stale sessions", 10*time.Second,
		func() int64 { return sup.Counters().StaleSessions.Load() }, 1)
	waitCounter(t, "begins", 10*time.Second,
		func() int64 { return sup.Counters().Begins.Load() }, 2)

	mutate(t, h.store, 0)
	waitConverged(t, h, sup, 10*time.Second)
	if eng := h.backend.Engine.Counters().Snapshot(); eng.Begins != 2 {
		t.Errorf("master begins = %d, want 2 (initial + re-begin)", eng.Begins)
	}
}

// TestPersistFallbackToPoll verifies the stream steady state: pushed
// batches apply while the stream lives, and a dead stream falls back to a
// resume-poll without losing updates or reloading.
func TestPersistFallbackToPoll(t *testing.T) {
	h := newHarness(t)
	cfg := h.config(t)
	cfg.Mode = ModePersist
	sup := startSupervisor(t, cfg)
	waitSynced(t, sup)

	mutate(t, h.store, 0)
	waitCounter(t, "stream batches", 10*time.Second,
		func() int64 { return sup.Counters().StreamBatches.Load() }, 1)

	// Sever everything briefly: the next pushed batch hits a dropped
	// write, the stream dies, and the supervisor falls back to polling
	// before rebuilding the stream. Faults only fire on I/O, so mutate
	// after arming the plan to generate stream traffic.
	h.inj.SetPlan(chaos.Plan{DropEveryNOps: 1})
	mutate(t, h.store, 1)
	waitCounter(t, "fallbacks", 10*time.Second,
		func() int64 { return sup.Counters().Fallbacks.Load() }, 1)
	h.inj.SetPlan(chaos.Plan{})

	mutate(t, h.store, 2)
	waitConverged(t, h, sup, 10*time.Second)
	if eng := h.backend.Engine.Counters().Snapshot(); eng.Begins != 1 || eng.FullReloads != 0 {
		t.Errorf("master begins=%d full-reloads=%d, want 1 and 0", eng.Begins, eng.FullReloads)
	}
}

// TestRefusedWindowBacksOff verifies capped backoff against a master whose
// host refuses connections for a while.
func TestRefusedWindowBacksOff(t *testing.T) {
	h := newHarness(t)
	h.inj.RefuseFor(150 * time.Millisecond)
	sup := startSupervisor(t, h.config(t))
	waitSynced(t, sup)
	c := sup.Counters().Snapshot()
	if c.BackoffWaits == 0 {
		t.Error("supervisor never backed off during the refused window")
	}
	if c.Begins != 1 {
		t.Errorf("begins = %d, want 1", c.Begins)
	}
	waitConverged(t, h, sup, 10*time.Second)
}

// TestCheckpointSurvivesSpecChange: a state directory written for one spec
// must not be resumed for a different one.
func TestCheckpointSurvivesSpecChange(t *testing.T) {
	h := newHarness(t)
	stateDir := t.TempDir()
	cfg := h.config(t)
	cfg.StateDir = stateDir
	sup := startSupervisor(t, cfg)
	waitSynced(t, sup)
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Spec = query.MustNew("o=xyz", query.ScopeSubtree, "(serialnumber=05*)")
	rep, err := replica.NewFilterReplica()
	if err != nil {
		t.Fatal(err)
	}
	sup2, err := New(cfg2, rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := sup2.Cookie(); got != "" {
		t.Errorf("spec-mismatched checkpoint restored cookie %q, want fresh start", got)
	}
}

// TestStreamBatchesReleaseWholeBatchesOnly: a pushed batch is applied only
// through its cookie-bearing final PDU. The head of a batch the stream cut
// off before its cookie stays pending — applied, it would put the replica
// ahead of its cookie, and the resume from that cookie could leave an entry
// the interval moved in and out again behind as a ghost.
func TestStreamBatchesReleaseWholeBatchesOnly(t *testing.T) {
	up := func(i int, cookie string, csn uint64) ldapnet.StreamUpdate {
		e := personEntry(i)
		return ldapnet.StreamUpdate{
			Update: resync.Update{Action: resync.ActionAdd, DN: e.DN(), Entry: e},
			Cookie: cookie, CSN: csn,
		}
	}
	var b streamBatches
	b.take(up(1, "", 0))
	if got, _, _ := b.release(); len(got) != 0 {
		t.Fatalf("released %d updates of a batch whose final PDU has not arrived", len(got))
	}
	b.take(up(2, "sess-1@2", 7)) // completes the first batch
	b.take(up(3, "sess-1@3", 9)) // a second whole batch
	b.take(up(4, "", 0))         // head of a third
	got, cookie, csn := b.release()
	if len(got) != 3 || cookie != "sess-1@3" || csn != 9 {
		t.Fatalf("release = %d updates, cookie %q, CSN %d; want 3, sess-1@3, 9", len(got), cookie, csn)
	}
	if !got[2].DN.Equal(personEntry(3).DN()) {
		t.Errorf("released batch ends at %s, want the third update", got[2].DN)
	}
	b.take(up(5, "sess-1@4", 11))
	got, cookie, _ = b.release()
	if len(got) != 2 || cookie != "sess-1@4" {
		t.Fatalf("tail batch = %d updates, cookie %q; want the kept head and its final PDU", len(got), cookie)
	}
	if !got[0].DN.Equal(personEntry(4).DN()) {
		t.Errorf("tail batch starts at %s, want the kept head", got[0].DN)
	}
}
