package taskservice

import (
	"errors"
	"testing"
	"time"

	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/wire"
)

// Fuzz schedule ops: one byte each, the commit and drop ops taking the
// next byte as their argument.
const (
	fzCommit   = iota // arg: name (low 2 bits), task count
	fzDrop            // arg: name
	fzOverflow        // push the journal past its capacity
	fzRestore         // Restore(Snapshot()): every cursor is burned
	fzPump0           // pump at the server's batch bound
	fzPump1           // pump with Max 1
	fzPump2           // pump with Max 2
	fzRedirect        // pump with the cursor corrupted to ^0
	fzFail            // a poll that fails in transport
	fzOps
)

// errInjected is the failed poll's error.
var errInjected = errors.New("injected poll failure")

// faultFeed is a SpecFeed that corrupts or fails the next poll on
// request, as faultinject.SpecFeed does on a schedule.
type faultFeed struct {
	inner    SpecFeed
	redirect bool // corrupt the next delta poll's cursor
	fail     bool // fail the next poll
}

func (f *faultFeed) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	redirect, fail := f.redirect, f.fail
	f.redirect, f.fail = false, false
	if fail {
		return nil, errInjected
	}
	if redirect && !req.Resync {
		req.Cursor = ^uint64(0)
	}
	return f.inner.PollFeed(req, buf)
}

// FuzzFeedConverges drives a remote FeedClient polling the server through
// a byte-chosen schedule of commits, drops, journal overflows, restores,
// bounded pumps, forced redirects and failed polls. Whatever the
// schedule, the client then syncs to a replica equal to the running
// table and an index equal to a fresh local Service's, and one more pump
// is caught up without a further resync.
func FuzzFeedConverges(f *testing.F) {
	// The churn matrix's shapes: a fleet, bumps and drops pumped at
	// varying lag, an overflow mid-churn; a restore mid-walk; a walk
	// paged one entry at a time through redirects and failures.
	f.Add([]byte{
		fzCommit, 0, fzCommit, 1, fzCommit, 2, fzCommit, 3, fzPump0,
		fzCommit, 5, fzDrop, 2, fzPump1, fzCommit, 10, fzOverflow, fzPump2,
		fzCommit, 2, fzPump0, fzPump0, fzDrop, 0, fzPump0,
	})
	f.Add([]byte{
		fzCommit, 0, fzCommit, 1, fzCommit, 3, fzPump0, fzRestore, fzPump1,
		fzPump1, fzDrop, 1, fzRestore, fzPump1, fzCommit, 6, fzPump0,
	})
	f.Add([]byte{
		fzCommit, 0, fzCommit, 1, fzCommit, 2, fzCommit, 3, fzRedirect,
		fzPump1, fzFail, fzPump1, fzDrop, 3, fzPump1, fzRedirect, fzPump2,
		fzFail, fzPump1, fzCommit, 7, fzPump1,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			return
		}
		clk := feedTestClock()
		store := jobstore.New()
		srv := jobservice.NewSpecFeed(store)
		pager := &maxFeed{inner: srv}
		ff := &faultFeed{inner: pager}
		h := &feedHarness{
			store:  store,
			feed:   srv,
			pager:  pager,
			remote: NewFeedClient(ff, "fuzz", clk, 90*time.Second, 4),
		}
		names := [4]string{"jobs/a", "jobs/b", "jobs/c", "jobs/d"}
		version, overflows := 1, 0
		pump := func(max int) {
			pager.max = max
			if _, err := h.remote.Pump(); err != nil && !errors.Is(err, errInjected) {
				t.Fatalf("pump: %v", err)
			}
		}
		for i := 0; i < len(data); i++ {
			op := data[i] % fzOps
			var arg byte
			if op == fzCommit || op == fzDrop {
				if i++; i == len(data) {
					break
				}
				arg = data[i]
			}
			switch op {
			case fzCommit:
				version++
				h.commit(t, names[arg%4], 1+int(arg/4%4), version)
			case fzDrop:
				store.DropRunning(names[arg%4])
			case fzOverflow:
				if overflows++; overflows > 2 {
					continue
				}
				burn := committed(feedJobDoc("jobs/burn", 1, 1))
				for j := 0; j < jobstore.JournalCap+2; j++ {
					version++
					if err := store.CommitRunning("jobs/burn", burn, int64(version)); err != nil {
						t.Fatal(err)
					}
				}
				store.DropRunning("jobs/burn")
			case fzRestore:
				snap, err := store.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := store.Restore(snap); err != nil {
					t.Fatal(err)
				}
			case fzPump0, fzPump1, fzPump2:
				pump(int(op - fzPump0))
			case fzRedirect:
				ff.redirect = true
				pump(0)
			case fzFail:
				ff.fail = true
				pump(0)
			}
		}

		pager.max = 0
		if err := h.remote.Sync(0); err != nil {
			t.Fatal(err)
		}
		h.checkReplica(t)
		if !IndexEqual(New(store, clk, 90*time.Second, 4).Index(), h.remote.Index()) {
			t.Fatal("remote index diverged from a fresh local index")
		}
		resyncs := h.remote.Stats().Resyncs
		if done, err := h.remote.Pump(); err != nil || !done {
			t.Fatalf("pump after sync = (%v, %v), want caught up", done, err)
		}
		if got := h.remote.Stats().Resyncs; got != resyncs {
			t.Fatalf("resyncs grew from %d to %d after convergence", resyncs, got)
		}
	})
}
