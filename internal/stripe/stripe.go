// Package stripe is the control plane's one lock-striping hash: the Job
// Store's job stripes, the metric store's series stripes and the Shard
// Manager's heartbeat stripes all mask Hash down to their power-of-two
// stripe count. Which stripe a key lands on is never observable — a
// stripe is a lock partition — except through jobstore.StripeOf, which
// State Syncer Nodes use to cut the fleet into shard slices.
package stripe

// Hash returns the 32-bit FNV-1a hash of key.
func Hash(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}
