// The State Syncer's one topology: N lease-coordinated Nodes, N >= 1.
//
// A deployment partitions the Job Store's stripe space into N contiguous
// shard slices and runs one syncer Node per slice; N is a size, not a
// mode — the single-syncer deployment is one Node over one slice
// covering every stripe. Each Node owns a round engine (a NewStriped
// Syncer) for its home slice and drives it only while holding that
// slice's TTL lease in the Job Store (jobstore.AcquireShardLease and
// friends). The lease table lives in the store — the durable system of
// record — so ownership rides Snapshot/Restore and survives any process
// crash. The Node is also the only scheduler: the engine has no ticker
// of its own, RunRound is a lease-free call harnesses and tools drive
// directly.
//
// Ownership protocol, per slice, per scheduling tick:
//
//   - A Node always claims its home slice: Acquire grants it when the
//     slice is unclaimed, already its own, or the standing lease has
//     expired. A replacement Node booted under its predecessor's ID
//     therefore resumes on its first tick, with no TTL wait. A live
//     foreign lease (a thief took the slice while this Node was dark) is
//     respected — ownership is sticky until the holder goes dark past
//     its TTL.
//   - A Node steals a foreign slice only when that slice HAS a lease
//     row and the lease has expired: the slice's home Node claimed it
//     once and then went dark. An absent row means the home Node has
//     not booted yet — stealing there would let whichever Node ticks
//     first grab the whole fleet at startup.
//   - A held slice's round runs only after verifying the lease is still
//     this Node's and still live; the lease is renewed (TTL extended)
//     only after the round SUCCEEDS. A Node whose transport to a slice
//     is partitioned therefore stops renewing, its lease runs down, and
//     a peer steals the slice — lease expiry falls out of the driver
//     seam with no extra fault plumbing. With no peer (N = 1) the Node
//     re-acquires its own lapsed lease once the partition heals.
//   - Renewal is epoch-fenced: a renewal after a mid-round steal fails,
//     the Node drops the slice, and — if that round committed work — the
//     event is counted as a lease violation. With the TTL well above the
//     tick interval (default 3×) this cannot happen outside deliberately
//     adversarial schedules; chaos asserts the counter stays zero.
//
// The Node talks to a slice's round engine through ShardDriver, a
// deliberately tiny transport-agnostic interface: in-process today (the
// direct call below), a codec seam tomorrow. faultinject wraps it to
// inject partitions, slow shards, and — via the renewal rule above —
// lease expiry.
//
// A stolen slice converges in one ordinary round: the thief's engine
// reads the slice's diverged set and sync states like every round does,
// and every divergence the dead owner left behind is in them.
package statesyncer

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobstore"
	"repro/internal/simclock"
)

// ShardStripeRange maps shard slice k of n onto the store's stripe
// space: slice k covers stripes [lo, hi). The n slices partition
// [0, jobstore.NumStripes) contiguously.
func ShardStripeRange(k, n int) (lo, hi int) {
	if n <= 0 {
		n = 1
	}
	lo = k * jobstore.NumStripes / n
	hi = (k + 1) * jobstore.NumStripes / n
	return lo, hi
}

// SliceOfName returns the index of the shard slice (of n) whose stripe
// range contains the job name.
func SliceOfName(name string, n int) int {
	if n <= 1 {
		return 0
	}
	stripe := jobstore.StripeOf(name)
	// Inverse of ShardStripeRange's lo = k·NumStripes/n, accounting for
	// the floor: candidate k, corrected by at most one step either way.
	k := stripe * n / jobstore.NumStripes
	for {
		lo, hi := ShardStripeRange(k, n)
		switch {
		case stripe < lo:
			k--
		case stripe >= hi:
			k++
		default:
			return k
		}
	}
}

// ShardDriver is the transport boundary between a syncer Node and one
// shard slice's round engine: ask the slice to run one synchronization
// round. The in-process implementation is a direct call; the interface
// exists so a remote shard (and the fault injector) can interpose
// without the Node knowing.
type ShardDriver interface {
	RunSliceRound() (RoundResult, error)
}

// inprocDriver is the in-process ShardDriver: a direct call into the
// slice's round engine. A round run after the engine was killed reports
// errKilled so the Node skips renewal and stats, exactly as a dead
// remote shard would time out.
type inprocDriver struct{ engine *Syncer }

func (d inprocDriver) RunSliceRound() (RoundResult, error) {
	res := d.engine.RunRound()
	if d.engine.Killed() {
		return res, errKilled
	}
	return res, nil
}

// NodeOptions configure one syncer Node.
type NodeOptions struct {
	// Shards is the total slice count N; Index in [0, N) is this Node's
	// home slice.
	Shards int
	Index  int
	// ID is the lease-holder identity committed to the Job Store;
	// defaults to "syncer-<Index>".
	ID string
	// Syncer configures each slice's round engine.
	Syncer Options
	// WrapDriver, if set, interposes on every slice's ShardDriver — the
	// fault-injection seam. Keyed by slice index.
	WrapDriver func(slice int, d ShardDriver) ShardDriver
}

// SliceStatus is one slice's view from one Node: lease state and
// last-round stats, as surfaced by turbinectl shards.
type SliceStatus struct {
	Slice              int
	StripeLo, StripeHi int
	// Held reports whether this Node currently holds the slice's lease;
	// Epoch is the fencing epoch it was granted.
	Held  bool
	Epoch int64
	// Rounds counts successful rounds this Node drove on the slice;
	// LeaseLost counts times it observed its lease gone (stolen or
	// expired); Violations counts rounds that committed work after the
	// lease was already stolen (must stay zero).
	Rounds     int
	LeaseLost  int
	Violations int
	// LastRound is the most recent successful round's result, taken at
	// LastRoundAt (sim time).
	LastRound   RoundResult
	LastRoundAt time.Time
}

// sliceState is the Node-local bookkeeping for one slice it may drive.
// engine and driver are built once in NewNode and never replaced, so
// Kill can reach them without the Node mutex (which the killing
// goroutine may already hold transitively — a crash fault fires from
// inside a round).
type sliceState struct {
	slice  int
	lo, hi int
	engine *Syncer
	driver ShardDriver

	held        bool
	epoch       int64
	rounds      int
	leaseLost   int
	violations  int
	lastRound   RoundResult
	lastRoundAt time.Time
}

// Node is one syncer process: home to one shard slice, backstop for the
// others. Create one per slice with NewNode and Start them on a shared
// clock; they coordinate purely through the Job Store's lease table.
type Node struct {
	store *jobstore.Store
	act   Actuator
	clock simclock.Clock
	opts  NodeOptions
	// leaseTTL is how long a slice lease lasts without renewal: 3× the
	// round interval, so a Node must miss two consecutive renewals before
	// its slice is stealable.
	leaseTTL time.Duration

	// killed simulates a process crash. Like Syncer.killed it is an
	// atomic outside the mutexes: Kill may be invoked re-entrantly from
	// a fault hook while Tick holds mu.
	killed atomic.Bool

	mu     sync.Mutex // slice lease/stats state
	slices []*sliceState

	tickerMu sync.Mutex
	ticker   simclock.Ticker
}

// NewNode builds (but does not start) one syncer Node.
func NewNode(store *jobstore.Store, act Actuator, clock simclock.Clock, opts NodeOptions) *Node {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Index < 0 || opts.Index >= opts.Shards {
		opts.Index = 0
	}
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("syncer-%d", opts.Index)
	}
	if opts.Syncer.Interval <= 0 {
		opts.Syncer.Interval = 30 * time.Second
	}
	n := &Node{store: store, act: act, clock: clock, opts: opts, leaseTTL: 3 * opts.Syncer.Interval}
	n.slices = make([]*sliceState, opts.Shards)
	for k := 0; k < opts.Shards; k++ {
		lo, hi := ShardStripeRange(k, opts.Shards)
		st := &sliceState{slice: k, lo: lo, hi: hi}
		st.engine = NewStriped(store, act, clock, opts.Syncer, lo, hi)
		st.driver = ShardDriver(inprocDriver{engine: st.engine})
		if opts.WrapDriver != nil {
			st.driver = opts.WrapDriver(k, st.driver)
		}
		n.slices[k] = st
	}
	return n
}

// ID returns the Node's lease-holder identity.
func (n *Node) ID() string { return n.opts.ID }

// HomeSlice returns the Node's home slice index.
func (n *Node) HomeSlice() int { return n.opts.Index }

// Start schedules periodic scheduling ticks on the Node's clock, one per
// round interval.
func (n *Node) Start() {
	if n.killed.Load() {
		return
	}
	n.tickerMu.Lock()
	defer n.tickerMu.Unlock()
	if n.ticker != nil {
		return
	}
	n.ticker = n.clock.TickEvery(n.opts.Syncer.Interval, func() { n.Tick() })
}

// Stop cancels periodic ticks (clean shutdown; the Node's leases run
// down naturally and peers pick the slices up after the TTL).
func (n *Node) Stop() {
	n.tickerMu.Lock()
	defer n.tickerMu.Unlock()
	if n.ticker != nil {
		n.ticker.Stop()
		n.ticker = nil
	}
}

// Kill simulates the Node process crashing: ticks stop, every slice
// engine is killed (suppressing in-flight store writes and actuator
// calls), and the Node never touches the lease table again — its leases
// expire on their own and peers steal the slices. Kill is safe to call
// from a fault hook that fires inside one of this Node's own rounds.
func (n *Node) Kill() {
	n.killed.Store(true)
	n.Stop()
	for _, st := range n.slices {
		st.engine.Kill()
	}
}

// Killed reports whether Kill was called.
func (n *Node) Killed() bool { return n.killed.Load() }

// Tick is one scheduling pass: service the home slice, then consider
// each foreign slice for a steal. Exported so harnesses can drive Nodes
// without the clock.
func (n *Node) Tick() {
	if n.killed.Load() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for off := 0; off < n.opts.Shards; off++ {
		if n.killed.Load() {
			// A fault mid-round killed this Node (crash-on-commit):
			// abandon the rest of the pass like a dead process would.
			return
		}
		sl := (n.opts.Index + off) % n.opts.Shards
		n.tickSlice(n.slices[sl], off == 0)
	}
}

// tickSlice services one slice: acquire or verify the lease, run the
// round through the driver, renew on success.
func (n *Node) tickSlice(st *sliceState, home bool) {
	now := n.clock.Now()
	if !st.held {
		if !home {
			// Steal gate: only slices whose home Node claimed them once
			// and then went dark. See the package comment.
			l, ok := n.store.ShardLeaseOf(st.slice)
			if !ok || l.Live(now) {
				return
			}
		}
		lease, ok := n.store.AcquireShardLease(st.slice, n.opts.ID, now, n.leaseTTL)
		if !ok {
			return
		}
		st.held = true
		st.epoch = lease.Epoch
	} else {
		// Pre-round liveness check, no extension: only a successful round
		// earns a renewal, so a Node partitioned from its slice stops
		// extending and the lease decays toward a steal. This read also
		// keeps a Node that lost its lease while dark from driving the
		// slice against the thief.
		l, ok := n.store.ShardLeaseOf(st.slice)
		if !ok || l.Holder != n.opts.ID || l.Epoch != st.epoch {
			st.held = false
			st.leaseLost++
			return
		}
		if !l.Live(now) {
			// Our own lease lapsed (we were dark past the TTL) but nobody
			// stole it yet: fall back through Acquire to re-extend it.
			st.held = false
			return
		}
	}
	res, err := st.driver.RunSliceRound()
	if err != nil {
		// Partitioned or slow shard: the round didn't (observably)
		// happen. No renewal — the lease keeps running down.
		return
	}
	if !n.store.RenewShardLease(st.slice, n.opts.ID, st.epoch, n.clock.Now(), n.leaseTTL) {
		// Stolen mid-round. If that round committed anything, the commits
		// raced the thief's: a lease violation.
		st.held = false
		st.leaseLost++
		if res.Simple+res.Complex+res.Deleted > 0 {
			st.violations++
		}
		return
	}
	st.rounds++
	st.lastRound = res
	st.lastRoundAt = now
}

// Status reports every slice's lease and last-round state as seen by
// this Node, home slice first by index order.
func (n *Node) Status() []SliceStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	dead := n.killed.Load()
	out := make([]SliceStatus, len(n.slices))
	for i, st := range n.slices {
		out[i] = SliceStatus{
			Slice:       st.slice,
			StripeLo:    st.lo,
			StripeHi:    st.hi,
			Held:        st.held && !dead,
			Epoch:       st.epoch,
			Rounds:      st.rounds,
			LeaseLost:   st.leaseLost,
			Violations:  st.violations,
			LastRound:   st.lastRound,
			LastRoundAt: st.lastRoundAt,
		}
	}
	return out
}

// Stats sums the cumulative round counters of the Node's slice engines.
// It takes no Node lock (the engines are fixed at NewNode and guard their
// own counters), so a fault hook firing inside a round may call it.
func (n *Node) Stats() Stats {
	var sum Stats
	for _, st := range n.slices {
		sum = sum.Add(st.engine.Stats())
	}
	return sum
}

// Violations sums lease violations across the Node's slices (rounds
// that committed after their lease was stolen). Must stay zero in every
// healthy and chaos run.
func (n *Node) Violations() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := 0
	for _, st := range n.slices {
		v += st.violations
	}
	return v
}

// HeldSlices returns the indices of the slices this Node currently
// holds, ascending.
func (n *Node) HeldSlices() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []int
	if n.killed.Load() {
		return out
	}
	for _, st := range n.slices {
		if st.held {
			out = append(out, st.slice)
		}
	}
	return out
}
