package resync

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// These tests pin the engine's bounded-history degradation contract: an
// exchange is incremental exactly while the session's resume history and
// the master's journal both cover the replica's sync point; outside that
// window the engine must degrade to a full reload (or, in retain mode, a
// full transfer) — and an E10 moved-out entry must never be dropped
// silently on any path.

// consumerContent simulates a poll-mode consumer applying a result to its
// held DN set (full reloads replace the content wholesale).
func consumerContent(held map[string]bool, res *PollResult) map[string]bool {
	if res.FullReload {
		held = make(map[string]bool)
	}
	for _, u := range res.Updates {
		switch u.Action {
		case ActionAdd, ActionModify:
			held[u.DN.Norm()] = true
		case ActionDelete:
			delete(held, u.DN.Norm())
		}
	}
	return held
}

func TestBoundedHistoryDegradation(t *testing.T) {
	cases := []struct {
		name string
		// journalLimit bounds the master journal (0: unbounded).
		journalLimit int
		// persistBatches accumulates this many unacknowledged persist-mode
		// sync points on the session before the consumer's stale poll.
		persistBatches int
		// directChanges applies this many changes with no subscriber.
		directChanges int
		wantReload    bool
	}{
		// The sync point is still in the resume history and the journal:
		// the E10 delete must arrive as an explicit minimal update.
		{name: "in window stays incremental", directChanges: 10},
		// More unacknowledged persist batches than the sync-point retention
		// policy keeps evict the consumer's sync point from the resume
		// history: only a full reload is safe.
		{name: "sync point evicted by unacked persist batches",
			persistBatches: defaultSyncPointRetention + 6, wantReload: true},
		// The journal no longer covers the sync point: full reload even
		// though the resume history still has the point.
		{name: "journal trim forces reload", journalLimit: 4,
			directChanges: 10, wantReload: true},
		// Same change count with a journal that covers it: incremental.
		{name: "journal within limit stays incremental", journalLimit: 16,
			directChanges: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts []dit.Option
			if tc.journalLimit > 0 {
				opts = append(opts, dit.WithJournalLimit(tc.journalLimit))
			}
			st, err := dit.NewStore([]string{"o=xyz"}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			master := storeWithBase(t, st)
			a := addPerson(t, master, "a", "0401", "1")
			victim := addPerson(t, master, "victim", "0402", "1")

			eng := NewEngine(master)
			res, err := eng.Begin(specSerial04)
			if err != nil {
				t.Fatal(err)
			}
			c1 := res.Cookie
			held := consumerContent(make(map[string]bool), res)
			if !held[victim.Norm()] {
				t.Fatalf("victim not in initial content")
			}

			// The first change moves the victim out of the content (E10);
			// the rest are in-content modifies of entry a.
			change := func(i int) {
				if i == 0 {
					mustModify(t, master, victim, "serialNumber", "0999")
					return
				}
				mustModify(t, master, a, "dept", "d"+string(rune('a'+i%20)))
			}

			switch {
			case tc.persistBatches > 0:
				sub, err := eng.Persist(c1)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.persistBatches; i++ {
					change(i)
					select {
					case <-sub.Updates: // delivered but never acknowledged
					case <-time.After(5 * time.Second):
						t.Fatalf("no persist batch for change %d", i)
					}
				}
				sub.Close()
			default:
				for i := 0; i < tc.directChanges; i++ {
					change(i)
				}
			}

			// The consumer never saw any of it and re-polls its durable
			// sync point.
			res, err = eng.Poll(c1)
			if err != nil {
				t.Fatal(err)
			}
			if res.FullReload != tc.wantReload {
				t.Fatalf("FullReload = %v, want %v", res.FullReload, tc.wantReload)
			}
			if tc.wantReload {
				for _, u := range res.Updates {
					if u.Action != ActionAdd {
						t.Errorf("reload carries %s for %s, want adds only", u.Action, u.DN)
					}
					if u.DN.Norm() == victim.Norm() {
						t.Errorf("reload still carries moved-out victim %s", u.DN)
					}
				}
			} else {
				var sawDelete bool
				for _, u := range res.Updates {
					if u.DN.Norm() == victim.Norm() {
						if u.Action != ActionDelete {
							t.Errorf("victim carried as %s, want delete", u.Action)
						}
						sawDelete = true
					}
				}
				if !sawDelete {
					t.Fatalf("incremental poll dropped the E10 delete for %s", victim)
				}
			}

			// On either path the consumer must converge: the victim is gone.
			held = consumerContent(held, res)
			if held[victim.Norm()] {
				t.Fatalf("consumer still holds moved-out victim after %s",
					map[bool]string{true: "reload", false: "incremental poll"}[res.FullReload])
			}
			if !held[a.Norm()] {
				t.Fatalf("consumer lost in-content entry a")
			}
		})
	}
}

// TestRetainStaleGeneration pins the retain-mode soundness fix: a
// DN-only retain may only reference entries the replica provably holds.
// After a lost retain response the presented generation is gone (retain
// mode keeps a single resumable point), so the engine must degrade to a
// full transfer — every content entry shipped with its attributes, zero
// retains.
func TestRetainStaleGeneration(t *testing.T) {
	master := newMaster(t)
	addPerson(t, master, "a", "0401", "1")

	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	c1 := res.Cookie
	held := consumerContent(make(map[string]bool), res)

	// An entry moves into the content, and the retain response carrying it
	// is lost in flight: the replica never learns of b.
	b := addPerson(t, master, "b", "0402", "1")
	if _, err := eng.PollRetain(c1); err != nil {
		t.Fatal(err)
	}

	// The replica re-polls its durable cookie. Before the fix the engine
	// classified against its post-lost-response state and emitted a DN-only
	// retain for b — an entry the replica cannot materialize.
	res, err = eng.PollRetain(c1)
	if err != nil {
		t.Fatal(err)
	}
	newHeld := make(map[string]bool)
	for _, u := range res.Updates {
		if u.Action == ActionRetain {
			t.Errorf("retain PDU for %s after stale generation; full transfer required", u.DN)
			continue
		}
		if u.Entry == nil {
			t.Errorf("%s for %s carries no entry", u.Action, u.DN)
		}
		newHeld[u.DN.Norm()] = true
	}
	_ = held
	if !newHeld[b.Norm()] {
		t.Fatalf("full transfer after stale generation misses moved-in entry %s", b)
	}
}

// TestRetainTrimmedJournal: at a known generation whose CSN the journal no
// longer covers, no record is left to prove any entry held, so retain mode
// degrades exactly as for an unknown generation — every content entry
// ships as an add and nothing is retained. The consumer upserts adds like
// modifies and drops the unmentioned, so it still converges.
func TestRetainTrimmedJournal(t *testing.T) {
	st, err := dit.NewStore([]string{"o=xyz"}, dit.WithJournalLimit(4))
	if err != nil {
		t.Fatal(err)
	}
	master := storeWithBase(t, st)
	a := addPerson(t, master, "a", "0401", "1")
	victim := addPerson(t, master, "victim", "0402", "1")
	addPerson(t, master, "c", "0403", "1")

	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	replica := newReplicaStore(t)
	ap := NewApplier(replica)
	if err := ap.Apply(specSerial04, res); err != nil {
		t.Fatal(err)
	}

	mustModify(t, master, victim, "serialNumber", "0999") // E10
	for i := 0; i < 8; i++ {
		mustModify(t, master, a, "dept", fmt.Sprint(i)) // trims the journal past the sync point
	}
	res, err = eng.PollRetain(res.Cookie)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Updates) != 2 {
		t.Errorf("retain poll mentioned %d entries, want a and c", len(res.Updates))
	}
	for _, u := range res.Updates {
		if u.Action != ActionAdd {
			t.Errorf("%s for %s past the trimmed journal, want add", u.Action, u.DN)
		}
	}
	if err := applyRetain(ap, specSerial04, res); err != nil {
		t.Fatal(err)
	}
	if ok, why := Converged(master, replica, specSerial04); !ok {
		t.Fatalf("retain mode past the trimmed journal did not converge: %s", why)
	}
}

// TestRetainDropUnmentioned pins equation 3's consumer contract at a known
// generation: unchanged held entries come back as cheap retains, and a
// moved-out entry is simply unmentioned — dropping unmentioned entries
// converges without any delete PDU.
func TestRetainDropUnmentioned(t *testing.T) {
	master := newMaster(t)
	a := addPerson(t, master, "a", "0401", "1")
	victim := addPerson(t, master, "victim", "0402", "1")

	eng := NewEngine(master)
	res, err := eng.Begin(specSerial04)
	if err != nil {
		t.Fatal(err)
	}
	c1 := res.Cookie

	mustModify(t, master, victim, "serialNumber", "0999") // E10

	res, err = eng.PollRetain(c1)
	if err != nil {
		t.Fatal(err)
	}
	var retains int
	mentioned := make(map[string]bool)
	for _, u := range res.Updates {
		mentioned[u.DN.Norm()] = true
		if u.Action == ActionRetain {
			retains++
		}
		if u.Action == ActionDelete {
			t.Errorf("delete PDU in retain mode for %s", u.DN)
		}
	}
	if retains == 0 {
		t.Error("no retain PDUs at a known generation; unchanged entries should be retained")
	}
	if mentioned[victim.Norm()] {
		t.Errorf("moved-out victim mentioned in retain result")
	}
	if !mentioned[a.Norm()] {
		t.Errorf("unchanged in-content entry a not mentioned; drop-unmentioned would lose it")
	}
}

// storeWithBase populates the standard o=xyz / c=us base entries into an
// existing (possibly journal-limited) store.
func storeWithBase(t testing.TB, st *dit.Store) *dit.Store {
	t.Helper()
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
	return st
}

func mustModify(t testing.TB, st *dit.Store, d dn.DN, attr, value string) {
	t.Helper()
	if err := st.Modify(d, []dit.Mod{{Op: dit.ModReplace, Attr: attr, Values: []string{value}}}); err != nil {
		t.Fatal(err)
	}
}

// applyRetain applies an equation-(3) retain-mode result to the applier's
// store: mentioned entries are upserted or retained, and every held
// in-content entry that was not mentioned is discarded.
func applyRetain(a *Applier, spec query.Query, res *PollResult) error {
	mentioned := make(map[string]bool, len(res.Updates))
	for _, u := range res.Updates {
		a.Traffic.Add(u)
		mentioned[u.DN.Norm()] = true
		switch u.Action {
		case ActionAdd, ActionModify:
			if err := a.Store.Upsert(u.Entry); err != nil {
				return fmt.Errorf("apply %s %q: %w", u.Action, u.DN.String(), err)
			}
		case ActionRetain:
			// Nothing to do: the entry is unchanged and already held.
		case ActionDelete:
			if err := a.Store.RemoveAny(u.DN); err != nil && !errors.Is(err, dit.ErrNoSuchObject) {
				return err
			}
		}
	}
	for _, held := range a.Store.MatchAll(stripAttrs(spec)) {
		if !mentioned[held.DN().Norm()] {
			if err := a.Store.RemoveAny(held.DN()); err != nil && !errors.Is(err, dit.ErrNoSuchObject) {
				return err
			}
		}
	}
	return nil
}
