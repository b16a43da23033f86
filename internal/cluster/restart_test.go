package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/taskmanager"
	"repro/internal/workload"
)

// TestOnlySyncerNodeCrashRestartResumesOnFirstTick: the one-Node
// deployment has no peer to steal from it, so a crashed Node's lease is
// still live when its replacement boots. The replacement keeps the
// holder ID, so its first tick re-acquires and commits — no TTL wait —
// whether it boots from warm memory or from the store's snapshot.
func TestOnlySyncerNodeCrashRestartResumesOnFirstTick(t *testing.T) {
	for _, viaSnapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("viaSnapshot=%v", viaSnapshot), func(t *testing.T) {
			c := newCluster(t, Config{Hosts: 4})
			jobs := []string{"j1", "j2", "j3"}
			for _, name := range jobs {
				if err := c.AddJob(JobSpec{Config: tailerJob(name, 2, 8), Pattern: workload.Constant(mb)}); err != nil {
					t.Fatal(err)
				}
			}
			c.Run(3 * time.Minute)
			atV2 := func() int {
				n := 0
				for _, name := range jobs {
					if m, _, ok := c.Store.RunningDoc(name); ok && m.Config != nil && m.Config.Package.Version == "v2" {
						n++
					}
				}
				return n
			}

			// Crash after commit: the round's first commit is durable, the
			// process dies before the other two.
			crashed := false
			c.Store.SetCommitHooks(&jobstore.CommitHooks{After: func(name string) {
				if !crashed {
					crashed = true
					c.KillSyncerNode(c.SyncerNodeFor(name))
				}
			}})
			for _, name := range jobs {
				if err := c.Jobs.SetPackageVersion(name, "v2"); err != nil {
					t.Fatal(err)
				}
			}
			c.Run(30 * time.Second)
			c.Store.SetCommitHooks(nil)
			if !crashed || !c.Syncer[0].Killed() {
				t.Fatal("the commit hook did not crash the only syncer node")
			}
			if got := atV2(); got != 1 {
				t.Fatalf("%d jobs at v2 after the crashed round, want exactly the one committed before the crash", got)
			}
			before, ok := c.Store.ShardLeaseOf(0)
			if !ok || !before.Live(c.Clk.Now()) {
				t.Fatalf("dead node's lease %+v should still be live: the test must not pass by waiting out the TTL", before)
			}

			if err := c.RestartSyncerNode(0, viaSnapshot); err != nil {
				t.Fatal(err)
			}
			c.Run(30 * time.Second) // the replacement's first tick
			st := c.Syncer[0].Status()[0]
			if st.Rounds != 1 || st.LastRound.Simple != 2 {
				t.Fatalf("replacement's first tick: %d rounds, last %+v; want one round committing the two jobs the crash left behind", st.Rounds, st.LastRound)
			}
			if got := atV2(); got != len(jobs) {
				t.Fatalf("%d/%d jobs at v2 after the replacement's first tick", got, len(jobs))
			}
			after, _ := c.Store.ShardLeaseOf(0)
			if after.Holder != before.Holder || after.Epoch != before.Epoch {
				t.Fatalf("lease moved %+v -> %+v; the same holder must re-acquire at the same epoch", before, after)
			}
			if v := c.Syncer[0].Violations(); v != 0 {
				t.Fatalf("%d lease violations", v)
			}
		})
	}
}

// beatProbe calls onBeat before each heartbeat its container sends.
type beatProbe struct {
	taskmanager.ShardManagerClient
	onBeat func()
}

func (p beatProbe) Heartbeat(id string) error {
	p.onBeat()
	return p.ShardManagerClient.Heartbeat(id)
}

// TestRevivedHostStartsNothingBeforeReRegistration: a host killed, failed
// over, and restored at second 1, 31 or 58 of its Task Manager's 60 s
// fetch period (58 puts the fetch tick ahead of the first heartbeat)
// restarts tasks only once a heartbeat has re-registered it — never from
// the shard list it died with.
func TestRevivedHostStartsNothingBeforeReRegistration(t *testing.T) {
	for _, second := range []int{1, 31, 58} {
		t.Run(fmt.Sprintf("second=%d", second), func(t *testing.T) {
			var c *Cluster
			revived := false
			attemptsAtFirstBeat := -1
			attempts := func() int {
				st := c.TaskManagers()[0].Stats()
				return st.Started + st.StartErrors
			}
			c = newCluster(t, Config{
				Hosts: 4,
				WrapSM: func(id string, inner taskmanager.ShardManagerClient) taskmanager.ShardManagerClient {
					if id != "cluster1-tc0000-0" {
						return inner
					}
					return beatProbe{inner, func() {
						if revived && attemptsAtFirstBeat < 0 {
							attemptsAtFirstBeat = attempts()
						}
					}}
				},
			})
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("j%d", i)
				if err := c.AddJob(JobSpec{Config: tailerJob(name, 8, 16), Pattern: workload.Constant(4 * mb)}); err != nil {
					t.Fatal(err)
				}
			}
			c.Run(3 * time.Minute)
			if c.TaskManagers()[0].TaskCount() == 0 {
				t.Skip("no tasks on host 0; hash layout changed")
			}

			host := c.Hosts()[0]
			if err := c.KillHost(host); err != nil {
				t.Fatal(err)
			}
			c.Run(3 * time.Minute) // failed over; the survivors run everything
			if got := c.TotalRunningTasks(); got != 32 {
				t.Fatalf("%d tasks running after failover, want 32", got)
			}

			// Whole minutes since Start: the clock sits on a fetch tick.
			c.Run(time.Duration(second) * time.Second)
			attemptsAtRevival := attempts()
			revived = true
			if err := c.RestoreHost(host); err != nil {
				t.Fatal(err)
			}
			c.Run(3 * time.Minute)
			if attemptsAtFirstBeat != attemptsAtRevival {
				t.Fatalf("revived host attempted %d task starts before its first heartbeat",
					attemptsAtFirstBeat-attemptsAtRevival)
			}
			if v := c.Violations(); v != 0 {
				t.Fatalf("%d lease violations after revival", v)
			}
			if got := c.TotalRunningTasks(); got != 32 {
				t.Fatalf("%d tasks running after revival, want 32", got)
			}
		})
	}
}
