package taskmanager

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
)

func TestValidateFailoverTiming(t *testing.T) {
	valid := []struct {
		name           string
		conn, failover time.Duration
	}{
		{"paper defaults resolved from zeros", 0, 0},
		{"explicit 40s < 60s", 40 * time.Second, 60 * time.Second},
		{"short conn against default failover", 5 * time.Second, 0},
		{"default conn against long failover", 0, 5 * time.Minute},
	}
	for _, tc := range valid {
		if err := ValidateFailoverTiming(tc.conn, tc.failover); err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
	}

	invalid := []struct {
		name           string
		conn, failover time.Duration
	}{
		{"equal opens a race at the boundary", time.Minute, time.Minute},
		{"conn longer than failover", 10 * time.Minute, time.Minute},
		{"conn longer than the default failover", 2 * time.Minute, 0},
		{"default conn against shorter failover", 0, 30 * time.Second},
	}
	for _, tc := range invalid {
		if err := ValidateFailoverTiming(tc.conn, tc.failover); err == nil {
			t.Errorf("%s: ValidateFailoverTiming(%v, %v) accepted a duplicate-task window",
				tc.name, tc.conn, tc.failover)
		}
	}
}

// blackoutSM wraps a container's Shard Manager link so heartbeats can be
// made to time out on the wire — a network partition, the fault
// injector's partition-shaped failure. While dark, heartbeats neither
// reach the SM nor return: the caller sees ErrTimeout and the SM sees
// silence.
type blackoutSM struct {
	ShardManagerClient
	mu   sync.Mutex
	dark bool
}

func (b *blackoutSM) setDark(dark bool) {
	b.mu.Lock()
	b.dark = dark
	b.mu.Unlock()
}

func (b *blackoutSM) Heartbeat(id string) error {
	b.mu.Lock()
	dark := b.dark
	b.mu.Unlock()
	if dark {
		return shardmanager.ErrTimeout
	}
	return b.ShardManagerClient.Heartbeat(id)
}

// TestHeartbeatTimeoutCountsTowardProactiveReboot drives the §IV-C
// protocol through ErrTimeout: a heartbeat blackout must count as
// silence, trigger the proactive reboot before the SM's failover, and gate
// Refresh from restarting tasks whose ownership cannot be confirmed.
func TestHeartbeatTimeoutCountsTowardProactiveReboot(t *testing.T) {
	clk := simclock.NewSim(epoch)
	store := jobstore.New()
	bus := scribe.NewBus()
	ckpt := engine.NewCheckpointStore()
	tw := tupperware.NewCluster()
	ts := taskservice.New(store, clk, 90*time.Second, 64)
	sm := shardmanager.New(clk, shardmanager.Options{NumShards: 64})
	bsm := &blackoutSM{ShardManagerClient: sm}
	profile := func(spec engine.TaskSpec) *engine.Profile {
		return engine.DefaultProfile(spec.Operator)
	}
	var tms []*Manager
	for i := 0; i < 2; i++ {
		tw.AddHost(fmt.Sprintf("h%d", i), config.Resources{CPUCores: 48, MemoryBytes: 256 << 30})
		ct, _ := tw.AllocateOn(fmt.Sprintf("h%d", i), fmt.Sprintf("tc%d", i), config.Resources{CPUCores: 40, MemoryBytes: 200 << 30})
		var client ShardManagerClient = sm
		if i == 0 {
			client = bsm // only tm0's link suffers the blackout
		}
		tm := New(ct, clk, ts, client, bus, ckpt, profile, Options{})
		tm.Start()
		tms = append(tms, tm)
	}
	sm.AssignUnassigned()
	sm.Start()
	defer sm.Stop()

	cfg := &config.JobConfig{
		Name: "j1", Package: config.Package{Name: "t", Version: "v1"},
		TaskCount: 4, ThreadsPerTask: 1,
		TaskResources: config.Resources{CPUCores: 1, MemoryBytes: 1 << 30},
		Operator:      config.OpTailer,
		Input:         config.Input{Category: "j1_in", Partitions: 8},
	}
	bus.CreateCategory("j1_in", 8)
	doc := runningOf(cfg)
	store.CommitRunning("j1", doc, 1)
	ts.Invalidate()
	for _, tm := range tms {
		tm.Refresh()
	}
	if tms[0].TaskCount() == 0 {
		t.Skip("all shards on tm1; hash layout changed")
	}

	bsm.setDark(true)
	clk.RunFor(45 * time.Second) // reboot at 40s; SM failover not until 60s

	if got := tms[0].Stats().Reboots; got != 1 {
		t.Fatalf("reboots = %d, want 1 (timeouts must count toward the proactive deadline)", got)
	}
	if got := tms[0].TaskCount(); got != 0 {
		t.Fatalf("tm0 still runs %d tasks after the proactive reboot", got)
	}
	// The dangerous moment: tm0 is connected (its link is merely timing
	// out) and still holds its shard list locally. A refresh must NOT
	// restart the tasks — shard ownership cannot be confirmed.
	tms[0].Refresh()
	if got := tms[0].TaskCount(); got != 0 {
		t.Fatalf("refresh restarted %d tasks during a heartbeat blackout", got)
	}

	// SM failover at 60s hands the shards to tm1; it runs everything.
	clk.RunFor(3 * time.Minute)
	if got := tms[1].TaskCount(); got != 4 {
		t.Fatalf("tm1 runs %d tasks after failover, want all 4", got)
	}
	if tms[0].Stats().Reboots != 1 {
		t.Fatalf("reboots = %d, want exactly 1", tms[0].Stats().Reboots)
	}
	if ckpt.Violations() != 0 {
		t.Fatalf("duplicate instances existed: %d violations", ckpt.Violations())
	}
}

// beatProbe calls onBeat before each heartbeat its container sends.
type beatProbe struct {
	ShardManagerClient
	onBeat func()
}

func (p *beatProbe) Heartbeat(id string) error {
	p.onBeat()
	return p.ShardManagerClient.Heartbeat(id)
}

// TestRevivedManagerStartsNothingBeforeFirstHeartbeat: a container whose
// host died was failed over; revived, it still holds the shard list it
// died with. Whatever second of the 60 s fetch period it comes back at —
// second 58 puts the fetch tick ahead of the first heartbeat — it must
// start nothing until that heartbeat has told it about the failover, or
// it restarts tasks of shards it no longer owns.
func TestRevivedManagerStartsNothingBeforeFirstHeartbeat(t *testing.T) {
	for _, second := range []int{1, 31, 58} {
		t.Run(fmt.Sprintf("second=%d", second), func(t *testing.T) {
			var w *world
			revived := false
			attemptsAtRevival, attemptsAtFirstBeat := 0, -1
			attempts := func() int { st := w.tms[0].Stats(); return st.Started + st.StartErrors }
			w = newWorldWrapped(t, 3, func(i int, sm ShardManagerClient) ShardManagerClient {
				if i != 0 {
					return sm
				}
				return &beatProbe{ShardManagerClient: sm, onBeat: func() {
					if revived && attemptsAtFirstBeat < 0 {
						attemptsAtFirstBeat = attempts()
					}
				}}
			})
			w.addJob(t, "j1", 12, 24)
			w.refreshAll()
			w.sm.Start()
			defer w.sm.Stop()
			if w.tms[0].TaskCount() == 0 {
				t.Skip("no shards of j1 on tc0; hash layout changed")
			}

			w.tw.SetHostHealthy("h0", false)
			w.tms[0].OnContainerDead()
			w.clk.RunFor(2 * time.Minute) // failed over; survivors run everything
			if got := w.tms[1].TaskCount() + w.tms[2].TaskCount(); got != 12 {
				t.Fatalf("survivors run %d tasks after failover, want 12", got)
			}

			// The tickers started at the epoch, so the clock sits on a fetch
			// tick: advance to the wanted second of the period and revive.
			w.clk.RunFor(time.Duration(second) * time.Second)
			attemptsAtRevival = attempts()
			revived = true
			w.tw.SetHostHealthy("h0", true)

			w.clk.RunFor(3 * time.Minute)
			if attemptsAtFirstBeat != attemptsAtRevival {
				t.Fatalf("revived manager attempted %d task starts before its first heartbeat",
					attemptsAtFirstBeat-attemptsAtRevival)
			}
			if v := w.ckpt.Violations(); v != 0 {
				t.Fatalf("%d lease violations after revival", v)
			}
			if got := w.totalRunning(); got != 12 {
				t.Fatalf("fleet runs %d tasks after revival, want 12", got)
			}
		})
	}
}
