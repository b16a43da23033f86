package engine

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/scribe"
)

// TestLeaseIncarnationsProperty drives tasks of a few jobs through seeded
// random sequences of NewTask and Start, Advance (a checkpoint), Stop,
// Respec, Kill, a forced Start that conflicts with a live lease, and a
// late ForceReleaseTask by an incarnation that has since stopped, been
// killed or been restarted in place. A model predicts every lease; after
// every step the store must agree with it:
//
//   - no partition has two live owners: each partition is held by at most
//     one running task, and every running task holds all of its own;
//   - LiveOwners equals the number of partitions the model holds;
//   - Owner(job, p) is the holding task's Instance(), or nothing;
//   - Violations equals the number of refused starts;
//   - a dead incarnation's ForceReleaseTask frees no successor's lease.
func TestLeaseIncarnationsProperty(t *testing.T) {
	const parts, of = 8, 4
	jobs := []string{"a", "b", "c"}
	prof := DefaultProfile(config.OpAggregate) // stateful: Advance writes state too
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bus, ckpt := scribe.NewBus(), NewCheckpointStore()
		for _, j := range jobs {
			if err := bus.CreateCategory(j+"_in", parts); err != nil {
				t.Fatal(err)
			}
		}
		type dead struct {
			job string
			inc Incarnation
		}
		var (
			tasks   []*Task
			gone    []dead // incarnations that stopped, were killed or were replaced
			holder  = make(map[string]map[int]*Task)
			refused int
		)
		for _, j := range jobs {
			holder[j] = make(map[int]*Task)
		}
		running := func() []*Task {
			var out []*Task
			for _, task := range tasks {
				if task.Running() {
					out = append(out, task)
				}
			}
			return out
		}
		release := func(task *Task) {
			for _, p := range task.spec.Partitions {
				if holder[task.spec.Job][p] == task {
					delete(holder[task.spec.Job], p)
				}
			}
			gone = append(gone, dead{task.spec.Job, task.incarnation()})
		}
		start := func(spec *TaskSpec) string {
			task := NewTask(spec, prof, bus, ckpt)
			tasks = append(tasks, task)
			free := true
			for _, p := range spec.Partitions {
				free = free && holder[spec.Job][p] == nil
			}
			err := task.Start()
			if (err == nil) != free {
				t.Fatalf("seed %d: Start(%s over %v) = %v, model says free=%v", seed, spec.ID(), spec.Partitions, err, free)
			}
			if err != nil {
				refused++
				return "refused start"
			}
			for _, p := range spec.Partitions {
				holder[spec.Job][p] = task
			}
			return "start"
		}

		for step := 0; step < 300; step++ {
			live := running()
			var what string
			switch op := rng.Intn(100); {
			case op < 30 || len(live) == 0:
				// Mostly a task of the job's own split, so a stopped or
				// killed task's successor takes its very partitions.
				j, i := jobs[rng.Intn(len(jobs))], rng.Intn(of)
				spec := testSpec(j, i, of, parts)
				if rng.Intn(4) == 0 {
					spec = testSpec(j, i%2, 2, parts) // the split of another task count
				}
				what = start(spec)
			case op < 38:
				// A forced start over a partition someone holds.
				victim := live[rng.Intn(len(live))]
				p := victim.spec.Partitions[rng.Intn(len(victim.spec.Partitions))]
				spec := testSpec(victim.spec.Job, rng.Intn(of), of, parts)
				spec.Partitions = []int{p}
				if start(spec) != "refused start" {
					t.Fatalf("seed %d step %d: a start over held partition %d of %s was not refused", seed, step, p, victim.spec.Job)
				}
				what = "forced start"
			case op < 55:
				task := live[rng.Intn(len(live))]
				if err := bus.Append(task.spec.InputCategory, task.spec.Partitions[0], rng.Int63n(1<<20), 0); err != nil {
					t.Fatal(err)
				}
				task.Advance(time.Second)
				what = "checkpoint"
			case op < 67:
				task := live[rng.Intn(len(live))]
				release(task)
				task.Stop()
				what = "stop"
			case op < 77:
				task := live[rng.Intn(len(live))]
				before, old := task.Instance(), task.incarnation()
				next := testSpec(task.spec.Job, task.spec.Index, task.spec.TaskCount, parts)
				next.PackageVersion = "v" + before
				if !respecOne(task, next, prof) {
					t.Fatalf("seed %d step %d: Respec refused running %s", seed, step, before)
				}
				if task.Instance() == before {
					t.Fatalf("seed %d step %d: Respec kept instance %s", seed, step, before)
				}
				gone = append(gone, dead{next.Job, old})
				what = "respec"
			case op < 87:
				task := live[rng.Intn(len(live))]
				release(task)
				task.Kill()
				what = "kill"
			default:
				if len(gone) == 0 {
					continue
				}
				d := gone[rng.Intn(len(gone))]
				ckpt.ForceReleaseTask(d.job, d.inc)
				what = "late force release"
			}

			claimed := make(map[string]map[int]*Task)
			for _, task := range running() {
				j := task.spec.Job
				if claimed[j] == nil {
					claimed[j] = make(map[int]*Task)
				}
				inst := task.Instance()
				for _, p := range task.spec.Partitions {
					if other := claimed[j][p]; other != nil {
						t.Fatalf("seed %d step %d (%s): partition %d of %s run by %s and %s", seed, step, what, p, j, other.Instance(), inst)
					}
					claimed[j][p] = task
					if owner, ok := ckpt.Owner(j, p); !ok || owner != inst {
						t.Fatalf("seed %d step %d (%s): running %s does not hold partition %d: owner %q, %v", seed, step, what, inst, p, owner, ok)
					}
				}
			}
			for _, j := range jobs {
				if got, want := ckpt.LiveOwners(j), len(holder[j]); got != want {
					t.Fatalf("seed %d step %d (%s): LiveOwners(%s) = %d, model holds %d", seed, step, what, j, got, want)
				}
				if !maps.Equal(claimed[j], holder[j]) {
					t.Fatalf("seed %d step %d (%s): %s: running tasks hold %v, model %v", seed, step, what, j, heldPartitions(claimed[j]), heldPartitions(holder[j]))
				}
				for p := 0; p < parts; p++ {
					owner, ok := ckpt.Owner(j, p)
					want, wantOK := "", false
					if task := holder[j][p]; task != nil {
						want, wantOK = task.Instance(), true
					}
					if owner != want || ok != wantOK {
						t.Fatalf("seed %d step %d (%s): Owner(%s, %d) = %q, %v; model %q, %v", seed, step, what, j, p, owner, ok, want, wantOK)
					}
				}
			}
			if got := ckpt.Violations(); got != refused {
				t.Fatalf("seed %d step %d (%s): Violations = %d, %d starts refused", seed, step, what, got, refused)
			}
		}
	}
}

// heldPartitions lists a partition-to-task map's partitions in order.
func heldPartitions(m map[int]*Task) []int {
	out := make([]int, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// TestNamesakeAfterDeleteJob re-creates a job under the same name after
// DeleteJob while a task of the deleted job still runs and holds the old
// job's record. Nothing that task does — its checkpoints, a stateful state
// size, an in-place restart, its Stop — may reach the namesake's record:
// the new job's tasks resume from zero, keep their leases and see no state
// they did not write.
func TestNamesakeAfterDeleteJob(t *testing.T) {
	bus, ckpt := scribe.NewBus(), NewCheckpointStore()
	if err := bus.CreateCategory("j_in", 2); err != nil {
		t.Fatal(err)
	}
	prof := DefaultProfile(config.OpAggregate) // stateful: Advance writes state too
	stale := NewTask(testSpec("j", 0, 1, 2), prof, bus, ckpt)
	if err := stale.Start(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if err := bus.Append("j_in", p, 1<<20, 0); err != nil {
			t.Fatal(err)
		}
	}
	stale.Advance(time.Second)
	if ckpt.Offset("j", 0) == 0 {
		t.Fatal("the first job checkpointed nothing")
	}

	ckpt.DeleteJob("j")
	fresh := NewTask(testSpec("j", 0, 1, 2), DefaultProfile(config.OpTailer), bus, ckpt)
	if err := fresh.Start(); err != nil {
		t.Fatalf("the namesake's start met the deleted job's leases: %v", err)
	}
	check := func(when string) {
		t.Helper()
		for p := 0; p < 2; p++ {
			if off, st := ckpt.Offset("j", p), ckpt.StateSize("j", p); off != 0 || st != 0 {
				t.Fatalf("%s: namesake's partition %d holds offset %d, state %d; the deleted job's task wrote them", when, p, off, st)
			}
			if owner, _ := ckpt.Owner("j", p); owner != fresh.Instance() {
				t.Fatalf("%s: namesake's partition %d leased to %q, want %s", when, p, owner, fresh.Instance())
			}
		}
		if ckpt.LiveOwners("j") != 2 || ckpt.Violations() != 0 {
			t.Fatalf("%s: %d live leases, %d violations", when, ckpt.LiveOwners("j"), ckpt.Violations())
		}
	}
	check("after the namesake's start")

	for p := 0; p < 2; p++ {
		if err := bus.Append("j_in", p, 1<<20, 0); err != nil {
			t.Fatal(err)
		}
	}
	stale.Advance(time.Second)
	check("after the deleted job's task checkpointed")
	next := testSpec("j", 0, 1, 2)
	next.PackageVersion = "v2"
	if respecOne(stale, next, prof) {
		t.Fatal("a task of the deleted job restarted in place on its retired record")
	}
	check("after the deleted job's task was offered an in-place restart")
	stale.Stop()
	check("after the deleted job's task stopped")
}
