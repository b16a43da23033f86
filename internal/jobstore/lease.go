// Shard-lease table: the Job Store side of State Syncer coordination.
//
// A deployment partitions the fleet into N >= 1 shard slices by
// job-name stripe; at most one syncer may drive a slice at a time (the
// paper's one-owner-mutates-a-job discipline). Ownership is a TTL lease
// committed here, in the store — the same durable system of record that
// already carries the syncer's crash-critical bookkeeping — so leases
// ride Snapshot/Restore for free and a restarted cluster resumes with
// the ownership map it crashed with.
//
// The protocol is deliberately tiny:
//
//   - Acquire grants a slice to a holder if the slice is unclaimed, the
//     holder already owns it (re-acquire extends the TTL), or the
//     current lease has expired (a steal). Every ownership change bumps
//     the lease epoch.
//   - Renew extends the TTL only if both holder and epoch still match —
//     a holder that lost its lease to a steal can never renew itself
//     back in, it must go through Acquire and observe the new epoch.
//
// There is no release: a Node that shuts down lets its leases run down,
// and a replacement under the same holder ID re-acquires at once.
//
// Both are serialized on one mutex: the table has N entries (N =
// shard count, single digits), so striping would be noise. Expiry is
// judged against a caller-supplied clock reading — the store itself is
// clockless, which keeps the harness's simulated time in charge.
package jobstore

import (
	"sort"
	"time"
)

// ShardLease is one row of the shard-lease table: the current owner of
// one shard slice.
type ShardLease struct {
	Shard  int    `json:"shard"`
	Holder string `json:"holder"`
	// Epoch increments on every ownership change (first claim or steal).
	// A holder's writes are fenced on it: renewal requires the epoch the
	// holder was granted, so a stolen-from holder cannot resurrect.
	Epoch   int64     `json:"epoch"`
	Expires time.Time `json:"expires"`
}

// Live reports whether the lease is unexpired as of now.
func (l ShardLease) Live(now time.Time) bool { return now.Before(l.Expires) }

// AcquireShardLease claims (or re-extends, or steals) the lease for a
// shard slice. It grants when the slice has no lease, when holder
// already owns it, or when the current lease has expired; otherwise it
// returns the standing lease and false. The granted lease (with its
// epoch) is returned for the holder to fence its renewals on.
func (s *Store) AcquireShardLease(shard int, holder string, now time.Time, ttl time.Duration) (ShardLease, bool) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if s.leases == nil {
		s.leases = make(map[int]*ShardLease)
	}
	l, ok := s.leases[shard]
	switch {
	case !ok:
		l = &ShardLease{Shard: shard, Holder: holder, Epoch: 1, Expires: now.Add(ttl)}
		s.leases[shard] = l
	case l.Holder == holder:
		// Re-acquire by the standing owner: extend, same epoch.
		l.Expires = now.Add(ttl)
	case !l.Live(now):
		// Steal: the owner went dark past its TTL. New epoch fences out
		// any late writes the old owner might still attempt.
		l.Holder = holder
		l.Epoch++
		l.Expires = now.Add(ttl)
	default:
		return *l, false
	}
	return *l, true
}

// RenewShardLease extends the lease iff holder still owns the slice at
// the given epoch. A false return means the lease was stolen: the
// holder must stop driving the slice and go back through
// AcquireShardLease.
func (s *Store) RenewShardLease(shard int, holder string, epoch int64, now time.Time, ttl time.Duration) bool {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	l, ok := s.leases[shard]
	if !ok || l.Holder != holder || l.Epoch != epoch {
		return false
	}
	l.Expires = now.Add(ttl)
	return true
}

// ClearShardLeases drops every lease row — the operator's "reset shard
// ownership" lever. Every slice becomes claimable by its home node as
// if the deployment had never run; epoch fencing restarts from 1.
// Harnesses also use it to compare two deployments' stores
// byte-for-byte: lease rows carry holder identities and steal-dependent
// epochs, which legitimately differ between runs whose job state is
// identical.
func (s *Store) ClearShardLeases() {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	s.leases = nil
}

// ShardLeaseOf returns the lease row for a shard slice, if any.
func (s *Store) ShardLeaseOf(shard int) (ShardLease, bool) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	l, ok := s.leases[shard]
	if !ok {
		return ShardLease{}, false
	}
	return *l, true
}

// ShardLeases returns every lease row, sorted by shard index.
func (s *Store) ShardLeases() []ShardLease {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	out := make([]ShardLease, 0, len(s.leases))
	for _, l := range s.leases {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}
