package chaos

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func soakSeed(t *testing.T) uint64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseUint(env, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
	}
	return seed
}

func soakShards(t *testing.T) int {
	t.Helper()
	env := os.Getenv("CHAOS_SHARDS")
	if env == "" {
		return 1
	}
	shards, err := strconv.Atoi(env)
	if err != nil || shards < 1 {
		t.Fatalf("bad CHAOS_SHARDS %q", env)
	}
	return shards
}

// TestChaosSoak is the acceptance soak: a full fault schedule against a
// live cluster, checked against a fault-free baseline. CI runs it under
// -race once per (CHAOS_SEED, CHAOS_SHARDS) cell of its matrix; the
// shard count sizes the one syncer topology, it does not pick a path.
func TestChaosSoak(t *testing.T) { runSoak(t, soakSeed(t), soakShards(t)) }

// TestChaosSoakSharded keeps a 4-Node cell — the scheduled Node crash
// whose lease a peer must steal — in the plain `go test ./...` pass,
// where CHAOS_SHARDS is unset and TestChaosSoak runs one Node.
func TestChaosSoakSharded(t *testing.T) { runSoak(t, soakSeed(t), 4) }

func runSoak(t *testing.T, seed uint64, shards int) {
	res, err := Run(Options{Seed: seed, SyncerShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("soak injected no faults — the schedule is not exercising anything")
	}
	if res.SyncerRestarts < 1 {
		t.Fatalf("syncer crash-restarted %d times, want at least 1 (crash rules did not fire)", res.SyncerRestarts)
	}
	if shards > 1 && res.LeaseSteals < 1 {
		t.Fatal("no lease steals — the scheduled node crash did not exercise the steal path")
	}
	t.Logf("seed %d shards %d: %d faults injected, %d syncer restarts, %d lease steals, store converged (%d bytes)",
		seed, shards, len(res.Trace), res.SyncerRestarts, res.LeaseSteals, len(res.FaultySnapshot))
	feedFaults, shardFaults := false, false
	for _, k := range res.TraceKeys {
		t.Logf("  %s", k)
		feedFaults = feedFaults || strings.HasPrefix(k, string(faultinject.OpSpecFeed)+" ")
		shardFaults = shardFaults || strings.HasPrefix(k, string(faultinject.OpShardRound)+" ")
	}
	if !feedFaults {
		t.Fatal("no spec-feed faults in the trace — the spec-feed seam is not wired")
	}
	if !shardFaults {
		t.Fatal("no shard-round faults in the trace — the shard-driver seam is not wired")
	}
	if res.RemoteFeed.Resyncs < 1 {
		t.Fatalf("remote subscriber resynced %d times, want at least 1 (force-resync storm did not fire)", res.RemoteFeed.Resyncs)
	}
	t.Logf("  remote feed: %d polls, %d applied, %d skipped, %d resyncs, %d bytes",
		res.RemoteFeed.Polls, res.RemoteFeed.Applied, res.RemoteFeed.Skipped, res.RemoteFeed.Resyncs, res.RemoteFeed.Bytes)
}

// TestChaosSoakSocket runs the soak with the remote Task Service dialed
// over a real localhost TCP socket, the OpFeedConn byte-stream faults
// (torn writes, short reads, hung conns, a 30 s disconnect storm)
// hitting the wire itself. The degraded-mode contract is asserted in
// full: the client observed zero torn frames, every reconnect resumed
// its cursor with zero full resyncs (server- and client-counted), and
// the staleness bound stayed monotone while dark (checked inside the
// run, every pump tick).
func TestChaosSoakSocket(t *testing.T) {
	seed := soakSeed(t)
	res, err := Run(Options{Seed: seed, SyncerShards: soakShards(t), FeedTransport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	connFaults := false
	for _, k := range res.TraceKeys {
		if strings.HasPrefix(k, string(faultinject.OpFeedConn)+" ") {
			connFaults = true
		}
	}
	if !connFaults {
		t.Fatal("no feed-conn faults in the trace — the byte-stream seam is not wired")
	}
	if res.RemoteDial.TornFrames != 0 {
		t.Fatalf("client observed %d torn frames — the frame reader delivered corrupt replies", res.RemoteDial.TornFrames)
	}
	if res.RemoteDial.Reconnects < 1 {
		t.Fatalf("client reconnected %d times, want at least 1 (disconnect faults did not bite)", res.RemoteDial.Reconnects)
	}
	// Store restores (syncer crash-restart boots) burn a journal seq and
	// invalidate cursors by design — each licenses at most one resync.
	// Anything past that bound would mean a reconnect cost a resync.
	if res.RemoteFeed.Resyncs > int64(res.StoreRestores) {
		t.Fatalf("client ran %d full resyncs with only %d store restores — a reconnect forced a resync instead of resuming the cursor",
			res.RemoteFeed.Resyncs, res.StoreRestores)
	}
	if res.Listener.Accepted < 2 {
		t.Fatalf("listener accepted %d conns, want at least 2 (no reconnect ever reached the server)", res.Listener.Accepted)
	}
	if res.RemoteFeed.Resumes < 1 {
		t.Fatalf("client resumed %d times, want at least 1 (degraded mode never engaged)", res.RemoteFeed.Resumes)
	}
	t.Logf("seed %d tcp: %d dials (%d reconnects, %d dial errors, %d backoff skips), %d conns accepted, %d polls served, %d bad frames",
		seed, res.RemoteDial.Dials, res.RemoteDial.Reconnects, res.RemoteDial.DialErrors, res.RemoteDial.BackoffSkips,
		res.Listener.Accepted, res.Listener.Served, res.Listener.BadFrames)
	t.Logf("  remote feed: %d polls, %d failures, %d resumes, %d applied, %d skipped",
		res.RemoteFeed.Polls, res.RemoteFeed.Failures, res.RemoteFeed.Resumes,
		res.RemoteFeed.Applied, res.RemoteFeed.Skipped)
}

// TestChaosSoakReplayDeterminism: identical seeds must produce identical
// failure sequences — event-for-event, including sim timestamps — and
// identical final stores; a different seed must diverge.
func TestChaosSoakReplayDeterminism(t *testing.T) {
	a, err := Run(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatalf("same seed, different fault traces:\n%v\nvs\n%v", a.TraceKeys, b.TraceKeys)
	}
	if string(a.FaultySnapshot) != string(b.FaultySnapshot) {
		t.Fatal("same seed, different final stores")
	}

	c, err := Run(Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Trace, c.Trace) {
		t.Fatal("seeds 42 and 43 produced identical fault traces")
	}
}
