package stripe

import (
	"hash/fnv"
	"testing"
)

// TestHashIsFNV1a32 holds Hash to the standard library's FNV-1a: State
// Syncer shard slices are cut along jobstore.StripeOf, so the function
// must not drift between builds.
func TestHashIsFNV1a32(t *testing.T) {
	for _, key := range []string{"", "a", "sim/t0042", "cluster1-tc0003-0", "job/x/inputRate"} {
		ref := fnv.New32a()
		ref.Write([]byte(key))
		if got, want := Hash(key), ref.Sum32(); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", key, got, want)
		}
	}
}
