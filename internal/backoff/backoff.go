// Package backoff is the control plane's one retry-delay rule: bounded
// exponential growth with deterministic jitter. The State Syncer's
// failed-job retries and the spec-feed client's redials both use it, so
// a given (key, streak) always waits the same time and a simulated run
// replays event for event.
package backoff

import "time"

// Delay returns base doubled `doublings` times, capped at max, minus a
// jitter of up to a quarter of the delay drawn from FNV-1a(key, salt) —
// callers that fail together (many jobs behind one dark dependency, many
// clients of one dead server) spread out instead of retrying in
// lockstep. The same arguments always yield the same delay.
func Delay(base, max time.Duration, doublings int, key string, salt uint64) time.Duration {
	d := base
	for i := 0; i < doublings && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d - time.Duration(fnv64(key, salt)%uint64(d/4+1))
}

// fnv64 hashes a string plus a salt (FNV-1a), the jitter source. It is
// not stripe.Hash: the salt is folded into the hash, and pinned delays
// (and with them seeded replays) ride on these exact 64 bits.
func fnv64(s string, salt uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (salt >> (8 * i)) & 0xff
		h *= prime64
	}
	return h
}
