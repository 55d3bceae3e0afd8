package resync

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"filterdir/internal/dit"
	"filterdir/internal/dn"
	"filterdir/internal/entry"
	"filterdir/internal/query"
)

// These tests pin the engine's session-state contract: a session is O(1)
// state (sync points are (generation, CSN) pairs), start-of-interval
// membership is read from the journal's before-images with the same
// content predicate Begin's snapshot uses, and a persist stream that the
// journal no longer covers ends without touching its session.

// TestPersistJournalOverflowReloadsOnce: a stream whose position the
// journal trimmed ends without computing a reload, so the consumer's
// fallback poll at its durable cookie computes the one and only reload.
// A stream that reloaded on its own (and threw the result away) would also
// reset the session's history, forcing the fallback poll into a second.
func TestPersistJournalOverflowReloadsOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []EngineOption
	}{
		// A one-batch queue and no demotion: the stalled grouped stream
		// skips cycles and stays at its first batch's sync point.
		{"grouped", []EngineOption{WithSlowConsumerPolicy(1, 1<<20)}},
		{"ungrouped", []EngineOption{WithoutGrouping()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := dit.NewStore([]string{"o=xyz"}, dit.WithJournalLimit(4))
			if err != nil {
				t.Fatal(err)
			}
			master := storeWithBase(t, st)
			a := addPerson(t, master, "a", "0401", "1")
			eng := NewEngine(master, tc.opts...)
			res, err := eng.Begin(specSerial04)
			if err != nil {
				t.Fatal(err)
			}
			c1 := res.Cookie
			sub, err := eng.Persist(c1)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			// One batch fills the stream's queue while the consumer stalls.
			mustModify(t, master, a, "dept", "2")
			deadline := time.Now().Add(5 * time.Second)
			for len(sub.Updates) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("no persist batch queued")
				}
				time.Sleep(time.Millisecond)
			}
			// Overflow the journal behind the stalled stream.
			for i := 0; i < 10; i++ {
				mustModify(t, master, a, "dept", fmt.Sprint(i+3))
			}
			// Drain; each commit after a read wakes the stream, which must
			// then find its position trimmed and end.
			timeout := time.After(5 * time.Second)
			for open := true; open; {
				select {
				case _, open = <-sub.Updates:
					if open {
						mustModify(t, master, a, "dept", "x")
					}
				case <-timeout:
					t.Fatal("stream did not end after the journal overflowed")
				}
			}

			res, err = eng.Poll(c1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.FullReload {
				t.Fatal("fallback poll past the trimmed journal is not a full reload")
			}
			if got := eng.Counters().FullReloads.Load(); got != 1 {
				t.Errorf("FullReloads = %d, want 1", got)
			}
		})
	}
}

// TestNilFilterExcludesObjectClasslessEntry: a nil filter means
// (objectclass=*), for Begin's snapshot and for classification alike. An
// entry without an objectClass is outside the content, so modifying it
// ships nothing — the before-image rule is only sound when both agree.
func TestNilFilterExcludesObjectClasslessEntry(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []EngineOption
	}{
		{"grouped", nil},
		{"ungrouped", []EngineOption{WithoutGrouping()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			master := newMaster(t) // no schema: objectClass is optional
			addPerson(t, master, "a", "0401", "1")
			bare := entry.New(dn.MustParse("cn=bare,c=us,o=xyz"))
			bare.Put("cn", "bare")
			if err := master.Add(bare); err != nil {
				t.Fatal(err)
			}
			spec := query.Query{Base: dn.MustParse("c=us,o=xyz"), Scope: query.ScopeSubtree}

			eng := NewEngine(master, tc.opts...)
			res, err := eng.Begin(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Updates) != 2 {
				t.Errorf("Begin shipped %d entries, want c=us and cn=a", len(res.Updates))
			}
			for _, u := range res.Updates {
				if u.DN.Equal(bare.DN()) {
					t.Errorf("Begin shipped objectClass-less %s", u.DN)
				}
			}

			mustModify(t, master, bare.DN(), "description", "x")
			res, err = eng.Poll(res.Cookie)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range res.Updates {
				t.Errorf("modify of an entry outside the content shipped %s %s", u.Action, u.DN)
			}
		})
	}
}

// TestIdleSessionRetainedHeap: sessions hold no per-entry state, so the
// heap an idle session retains is independent of its content size.
func TestIdleSessionRetainedHeap(t *testing.T) {
	const entries, sessions = 1000, 1000
	master := newMaster(t)
	for i := 0; i < entries; i++ {
		addPerson(t, master, fmt.Sprintf("p%d", i), fmt.Sprintf("04%04d", i), "1")
	}
	eng := NewEngine(master)
	// The first session founds the content group; measure the marginal
	// session after it.
	if _, err := eng.Begin(specSerial04); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < sessions; i++ {
		res, err := eng.Begin(specSerial04)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Updates) != entries {
			t.Fatalf("Begin shipped %d entries, want %d", len(res.Updates), entries)
		}
	}
	after := heap()
	if eng.Sessions() != sessions+1 {
		t.Fatalf("Sessions() = %d, want %d", eng.Sessions(), sessions+1)
	}
	var per uint64
	if after > before {
		per = (after - before) / sessions
	}
	t.Logf("retained heap per idle session: %d B", per)
	if per >= 1024 {
		t.Errorf("idle session retains %d B of heap over a %d-entry content, want < 1 KB", per, entries)
	}
	runtime.KeepAlive(eng)
}
