package engine

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/scribe"
)

// FuzzRespecMatchesRestart holds the in-place restart to the one it
// replaces. Twin data planes (bus and checkpoint store) see the same
// appends; one twin restarts its task the old way — Stop, NewTask with the
// new spec, Start — and the other calls Respec. Before and after, over
// partition sets of 1–32, stateful and stateless operators, OOM kills
// and specs that change package, threads and resources (never job or
// partitions), the twins must agree on every checkpointed offset and
// state size, every lease count and violation, the backlog, the OOM
// history and every later Advance's Stats — also when a stale write has
// landed on the checkpoint just before. The in-place instance must be
// new, name the task ("<job>#<index>@"), and hold every lease. A spec
// that moves partitions must be refused, leaving the task as it was.
func FuzzRespecMatchesRestart(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(8), false, false)
	f.Add(int64(2), uint8(32), uint8(32), true, false)
	f.Add(int64(3), uint8(5), uint8(12), false, true) // OOM-killed before the restart
	f.Add(int64(4), uint8(16), uint8(64), true, true)
	f.Fuzz(func(t *testing.T, seed int64, nParts, catParts uint8, stateful, oom bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nParts%32)
		catN := 1 + int(catParts%64)
		first, stride := rng.Intn(4), 1+rng.Intn(3)
		parts := make([]int, n)
		for i := range parts {
			parts[i] = first + i*stride
		}
		top := parts[n-1] + 1

		op := config.OpTransform
		if stateful {
			op = config.OpAggregate
		}
		profile := DefaultProfile(op)
		limit := int64(0) // no OOM: no limit
		if oom {
			limit = profile.BaseMemoryBytes + 1
		}
		spec := &TaskSpec{
			JobSpec: &JobSpec{
				Job: "j", TaskCount: 8, PackageVersion: "v1", Threads: 1 + rng.Intn(4),
				Operator: op, InputCategory: "in", OutputCategory: "out",
				Resources:   config.Resources{CPUCores: float64(rng.Intn(4)), MemoryBytes: limit},
				Enforcement: config.EnforceCgroup,
			},
			Index:      rng.Intn(8),
			Partitions: parts,
		}
		// The new spec keeps job, index and partitions (a copy of them);
		// package, threads and resources change.
		next := &TaskSpec{JobSpec: new(JobSpec), Index: spec.Index, Partitions: slices.Clone(parts)}
		*next.JobSpec = *spec.JobSpec
		next.PackageVersion = "v2"
		next.Threads = 1 + rng.Intn(4)
		next.Resources = config.Resources{CPUCores: float64(rng.Intn(4)), MemoryBytes: []int64{0, limit, 1 << 40}[rng.Intn(3)]}
		nextProfile := *profile
		nextProfile.PerThreadRate *= float64(1 + rng.Intn(3))

		type plane struct {
			bus  *scribe.Bus
			ckpt *CheckpointStore
			task *Task
		}
		outN := rng.Intn(3)
		var twins [2]*plane
		for i := range twins {
			p := &plane{bus: scribe.NewBus(), ckpt: NewCheckpointStore()}
			if err := p.bus.CreateCategory("in", catN); err != nil {
				t.Fatal(err)
			}
			if outN > 0 {
				if err := p.bus.CreateCategory("out", outN); err != nil {
					t.Fatal(err)
				}
			}
			p.task = NewTask(spec, profile, p.bus, p.ckpt)
			if err := p.task.Start(); err != nil {
				t.Fatal(err)
			}
			twins[i] = p
		}
		restart, respec := twins[0], twins[1]

		appendSome := func() {
			for p := 0; p < catN; p++ {
				if rng.Intn(3) == 0 {
					continue
				}
				b := rng.Int63n(1 << uint(rng.Intn(26)))
				for _, tw := range twins {
					if err := tw.bus.Append("in", p, b, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		same := func(when string) {
			t.Helper()
			a, b := restart, respec
			for p := 0; p < top; p++ {
				if x, y := a.ckpt.Offset("j", p), b.ckpt.Offset("j", p); x != y {
					t.Fatalf("%s: checkpointed offset of partition %d: %d after a restart, %d in place", when, p, x, y)
				}
				if x, y := a.ckpt.StateSize("j", p), b.ckpt.StateSize("j", p); x != y {
					t.Fatalf("%s: state size of partition %d: %d after a restart, %d in place", when, p, x, y)
				}
			}
			if x, y := a.ckpt.LiveOwners("j"), b.ckpt.LiveOwners("j"); x != y || x != n {
				t.Fatalf("%s: %d live leases after a restart, %d in place; want %d", when, x, y, n)
			}
			if x, y := a.ckpt.Violations(), b.ckpt.Violations(); x != 0 || y != 0 {
				t.Fatalf("%s: %d violations after a restart, %d in place", when, x, y)
			}
			if x, y := a.task.Backlog(), b.task.Backlog(); x != y {
				t.Fatalf("%s: backlog %d after a restart, %d in place", when, x, y)
			}
			if a.task.OOMCount() != b.task.OOMCount() || a.task.Restarts() != b.task.Restarts() || a.task.LastStats() != b.task.LastStats() {
				t.Fatalf("%s: OOMs %d/%d, OOM restarts %d/%d, last stats %+v / %+v",
					when, a.task.OOMCount(), b.task.OOMCount(), a.task.Restarts(), b.task.Restarts(), a.task.LastStats(), b.task.LastStats())
			}
			for p := 0; p < outN; p++ {
				x, _, _ := a.bus.Written("out", p)
				if y, _, _ := b.bus.Written("out", p); x != y {
					t.Fatalf("%s: output partition %d holds %d after a restart, %d in place", when, p, x, y)
				}
			}
		}
		advance := func(steps int, when string) {
			t.Helper()
			for step := 0; step < steps; step++ {
				appendSome()
				dt := []time.Duration{0, time.Second, 10 * time.Second, time.Minute}[rng.Intn(4)]
				if x, y := restart.task.Advance(dt), respec.task.Advance(dt); x != y {
					t.Fatalf("%s, step %d (dt %v): Stats\n after a restart %+v\n in place        %+v", when, step, dt, x, y)
				}
				same(when)
			}
		}

		advance(1+rng.Intn(4), "before the restart")

		// A spec over other partitions is refused and changes nothing.
		old := respec.task.Instance()
		moved := &TaskSpec{JobSpec: next.JobSpec, Index: spec.Index, Partitions: append(slices.Clone(parts), top)}
		if respecOne(respec.task, moved, &nextProfile) || respec.task.Instance() != old || respec.task.Spec() != spec {
			t.Fatal("Respec took a spec whose partitions moved")
		}

		// A stale write behind the task's back (a killed predecessor's late
		// flush, say): the restart persists the task's own offsets over it.
		if rng.Intn(2) == 0 {
			stale := make([]int64, n)
			for i := range stale {
				stale[i] = rng.Int63n(1 << 30)
			}
			for _, tw := range twins {
				tw.ckpt.checkpointJob("j", parts, stale, -1)
			}
		}
		restart.task.Stop()
		restart.task = NewTask(next, &nextProfile, restart.bus, restart.ckpt)
		if err := restart.task.Start(); err != nil {
			t.Fatal(err)
		}
		if !respecOne(respec.task, next, &nextProfile) {
			t.Fatal("Respec refused a running task's spec over the same partitions")
		}
		inst := respec.task.Instance()
		if prefix := "j#" + strconv.Itoa(spec.Index) + "@"; inst == old || !strings.HasPrefix(inst, prefix) {
			t.Fatalf("instance %s -> %s, want a new %s<seq>", old, inst, prefix)
		}
		for _, p := range parts {
			if owner, _ := respec.ckpt.Owner("j", p); owner != inst {
				t.Fatalf("partition %d leased to %q, the task runs as %s", p, owner, inst)
			}
		}
		if respec.task.Spec() != next {
			t.Fatal("Respec left the old spec in place")
		}
		same("at the restart")
		advance(1+rng.Intn(4), "after the restart")
	})
}
