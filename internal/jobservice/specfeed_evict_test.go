package jobservice

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/wire"
)

// TestFeedSubscriberEviction: a long-lived feed server must not grow its
// registry without bound as remote Task Services churn. With eviction
// armed, a subscriber silent for longer than the TTL is swept out (and
// counted), while active subscribers survive with a live SincePoll
// staleness reading; an evicted subscriber that comes back simply
// re-registers, because its cursor rides in its own requests.
func TestFeedSubscriberEviction(t *testing.T) {
	store := jobstore.New()
	f := NewSpecFeed(store)
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	f.SetSubscriberTTL(clk)
	commitN(t, store, 4, 1)

	pollDelta(t, f, wire.FeedRequest{Subscriber: "alive"})
	pollDelta(t, f, wire.FeedRequest{Subscriber: "ghost"})
	if got := len(f.Subscribers()); got != 2 {
		t.Fatalf("%d subscribers registered, want 2", got)
	}

	// "alive" keeps polling; "ghost" goes dark.
	clk.RunFor(subscriberTTL / 2)
	pollDelta(t, f, wire.FeedRequest{Subscriber: "alive", Cursor: store.JournalHead()})

	// The ghost's silence crosses the TTL; the Subscribers read sweeps it
	// out.
	silence := subscriberTTL/2 + time.Minute
	clk.RunFor(silence)
	subs := f.Subscribers()
	if len(subs) != 1 || subs[0].Subscriber != "alive" {
		t.Fatalf("post-sweep registry = %+v, want only alive", subs)
	}
	if got := f.Stats().Evicted; got != 1 {
		t.Fatalf("Evicted = %d, want 1", got)
	}
	// The survivor's server-side staleness reads its real silence since
	// its last poll, not zero.
	if got := subs[0].SincePoll; got != silence {
		t.Fatalf("alive SincePoll = %v, want %v", got, silence)
	}

	// The ghost returns: one poll re-registers it, no state lost beyond
	// the registry row.
	pollDelta(t, f, wire.FeedRequest{Subscriber: "ghost", Cursor: store.JournalHead()})
	subs = f.Subscribers()
	if len(subs) != 2 || subs[1].Subscriber != "ghost" {
		t.Fatalf("post-return registry = %+v, want alive+ghost", subs)
	}
	if got := subs[1].SincePoll; got != 0 {
		t.Fatalf("returned ghost SincePoll = %v, want 0", got)
	}
	if got := f.Stats().Evicted; got != 1 {
		t.Fatalf("Evicted grew to %d on re-registration, want still 1", got)
	}
}

// TestFeedSubscriberRegistryBounded: however many names poll, the registry
// holds at most maxSubscribers. A first-seen name that finds it full is
// still served — the registry is status only — but stays out of it and is
// counted in Unregistered. A full registry forces an eviction sweep past
// the quarter-TTL rate limit, so with eviction armed a silent subscriber
// makes room for the newcomer.
func TestFeedSubscriberRegistryBounded(t *testing.T) {
	store := jobstore.New()
	f := NewSpecFeed(store)
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	f.SetSubscriberTTL(clk)
	commitN(t, store, 4, 1)

	pollDelta(t, f, wire.FeedRequest{Subscriber: "ghost"})
	clk.RunFor(subscriberTTL - time.Minute)
	pollDelta(t, f, wire.FeedRequest{Subscriber: "ts-0001"}) // sweeps; the ghost is not yet past the TTL
	clk.RunFor(90 * time.Second)                             // now it is, but the next sweep is not due
	for i := 2; i < maxSubscribers; i++ {
		pollDelta(t, f, wire.FeedRequest{Subscriber: fmt.Sprintf("ts-%04d", i)})
	}
	if got := len(f.subs); got != maxSubscribers {
		t.Fatalf("%d subscribers registered, want the full %d", got, maxSubscribers)
	}

	// The newcomer forces the sweep, which takes the ghost out and lets it in.
	if d, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "newcomer"}); d.Count != 4 {
		t.Fatalf("newcomer served %d changes, want 4", d.Count)
	}
	st := f.Stats()
	if _, in := f.subs["newcomer"]; !in || st.Evicted != 1 || st.Unregistered != 0 {
		t.Fatalf("newcomer registered %v, Evicted %d, Unregistered %d; want true, 1, 0", in, st.Evicted, st.Unregistered)
	}

	// Nobody else is silent: the next newcomer is served but not kept,
	// every time it polls.
	for poll := 1; poll <= 2; poll++ {
		if d, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "late"}); d.Count != 4 {
			t.Fatalf("late subscriber served %d changes, want 4", d.Count)
		}
		if got := f.Stats().Unregistered; got != int64(poll) {
			t.Fatalf("Unregistered = %d after %d polls, want %d", got, poll, poll)
		}
	}
	if _, in := f.subs["late"]; in || len(f.subs) != maxSubscribers {
		t.Fatalf("late subscriber registered %v, registry %d; want false, %d", in, len(f.subs), maxSubscribers)
	}
}
