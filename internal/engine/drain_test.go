package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/scribe"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// refWorld is the data plane Advance used to talk to, over plain slices
// and maps: a bus answering one partition per call, and a checkpoint store
// written one partition per call. It is the oracle the batched Advance is
// held to — the per-partition loop exactly as it ran when every step was
// its own lock round trip.
type refWorld struct {
	input   []int64 // end offset per partition of the input category; nil: no such category
	output  []int64 // likewise for the output category
	offsets map[int]int64
	state   map[int]int64
}

func (w *refWorld) backlog(part int, offset int64) int64 {
	if w.input == nil || part < 0 || part >= len(w.input) {
		return 0
	}
	lag := w.input[part] - offset
	if lag < 0 {
		return 0
	}
	return lag
}

func (w *refWorld) read(part int, offset, maxBytes int64) (newOffset, consumed int64) {
	if w.input == nil || part < 0 || part >= len(w.input) || maxBytes <= 0 {
		return offset, 0
	}
	avail := w.input[part] - offset
	if avail <= 0 {
		return offset, 0
	}
	if avail > maxBytes {
		avail = maxBytes
	}
	return offset + avail, avail
}

// refTask is a running task over a refWorld.
type refTask struct {
	spec       *TaskSpec
	profile    *Profile
	w          *refWorld
	offsets    []int64
	oomBackoff bool
}

func (t *refTask) maxRate() float64 {
	eff := float64(t.spec.Threads)
	if t.spec.Resources.CPUCores > 0 && t.spec.Resources.CPUCores < eff {
		eff = t.spec.Resources.CPUCores
	}
	return t.profile.PerThreadRate * eff
}

func (t *refTask) backlog() int64 {
	var total int64
	for i, p := range t.spec.Partitions {
		total += t.w.backlog(p, t.offsets[i])
	}
	return total
}

// advance is the per-partition Advance, call for call.
func (t *refTask) advance(dt time.Duration) Stats {
	secs := dt.Seconds()
	if secs <= 0 {
		return Stats{BacklogBytes: t.backlog()}
	}
	if t.oomBackoff {
		t.oomBackoff = false
		return Stats{BacklogBytes: t.backlog(), MemoryBytes: t.profile.BaseMemoryBytes}
	}

	capacity := int64(t.maxRate() * secs)
	var backlogs []int64
	var totalBacklog int64
	for i, p := range t.spec.Partitions {
		b := t.w.backlog(p, t.offsets[i])
		backlogs = append(backlogs, b)
		totalBacklog += b
	}
	var consumed int64
	if totalBacklog > 0 && capacity > 0 {
		toConsume := min(capacity, totalBacklog)
		remaining := toConsume
		for i, p := range t.spec.Partitions {
			var quota int64
			if i == len(t.spec.Partitions)-1 {
				quota = remaining
			} else {
				quota = int64(float64(toConsume) * float64(backlogs[i]) / float64(totalBacklog))
			}
			if quota > remaining {
				quota = remaining
			}
			newOff, n := t.w.read(p, t.offsets[i], quota)
			t.offsets[i] = newOff
			consumed += n
			remaining -= n
			t.w.offsets[p] = newOff
		}
	}

	rate := float64(consumed) / secs
	cpu := rate / t.profile.PerThreadRate
	mem := t.profile.MemoryAt(rate)
	disk := t.profile.DiskAt(rate)
	network := int64(rate * (1 + t.profile.OutputRatio))

	if t.spec.OutputCategory != "" && t.profile.OutputRatio > 0 && consumed > 0 {
		out := int64(float64(consumed) * t.profile.OutputRatio)
		if nOut := len(t.w.output); nOut > 0 {
			t.w.output[t.spec.Index%nOut] += out
		}
	}

	if t.spec.Operator.Stateful() && len(t.spec.Partitions) > 0 {
		working := mem - t.profile.BaseMemoryBytes
		if working > 0 {
			perPart := working / int64(len(t.spec.Partitions))
			for _, p := range t.spec.Partitions {
				t.w.state[p] = perPart
			}
		}
	}

	st := Stats{
		ProcessedBytes: consumed,
		Rate:           rate,
		CPUCores:       cpu,
		MemoryBytes:    mem,
		DiskBytes:      disk,
		NetworkBps:     network,
		BacklogBytes:   t.backlog(),
	}
	limit := t.spec.Resources.MemoryBytes
	if limit > 0 && mem > limit && t.spec.Enforcement != config.EnforceNone && t.spec.Enforcement != "" {
		st.OOMKilled = true
		t.oomBackoff = true
	}
	return st
}

// FuzzAdvanceMatchesPerPartitionDrain holds the batched Advance — one bus
// snapshot, arithmetic, one checkpoint write — to the per-partition loop it
// replaced: same Stats, same offsets, same checkpointed offsets and state
// sizes, same output, step after step, over partition sets of 1–64
// (non-contiguous, partly outside the category), readers ahead of the log,
// capacities from zero to more than the backlog, stateful and stateless
// operators, OOM kills, and a missing input category.
func FuzzAdvanceMatchesPerPartitionDrain(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(8), uint8(2), false, false)
	f.Add(int64(2), uint8(32), uint8(32), uint8(2), false, false) // sim_day's shape: one task, 32 partitions
	f.Add(int64(3), uint8(11), uint8(64), uint8(1), true, false)
	f.Add(int64(4), uint8(64), uint8(40), uint8(8), true, false) // some partitions beyond the category
	f.Add(int64(5), uint8(9), uint8(16), uint8(3), false, true)  // no such category
	f.Add(int64(6), uint8(1), uint8(1), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, nParts, catParts, threads uint8, stateful, missing bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nParts%64)
		catN := 1 + int(catParts%96)
		first, stride := rng.Intn(4), 1+rng.Intn(3)
		parts := make([]int, n)
		for i := range parts {
			parts[i] = first + i*stride
		}
		top := parts[n-1] + 1 // partition numbers 0..top-1 are compared

		index := rng.Intn(8) // draw order: index, then resources
		spec := &TaskSpec{
			JobSpec: &JobSpec{
				Job: "j", TaskCount: 8, Threads: 1 + int(threads%8),
				Operator: config.OpTransform, InputCategory: "in", OutputCategory: "out",
				Resources:   config.Resources{CPUCores: float64(rng.Intn(5)), MemoryBytes: int64(rng.Intn(3)) << 28},
				Enforcement: config.EnforceCgroup,
			},
			Index:      index,
			Partitions: parts,
		}
		if stateful {
			spec.Operator = config.OpAggregate
		}
		profile := *DefaultProfile(spec.Operator)
		profile.PerThreadRate = []float64{0.25, 1 << 10, 3 << 20, 1e12}[rng.Intn(4)]

		bus, ckpt := scribe.NewBus(), NewCheckpointStore()
		ref := &refWorld{offsets: make(map[int]int64), state: make(map[int]int64)}
		if !missing {
			if err := bus.CreateCategory("in", catN); err != nil {
				t.Fatal(err)
			}
			ref.input = make([]int64, catN)
		}
		if outN := rng.Intn(4); outN > 0 {
			if err := bus.CreateCategory("out", outN); err != nil {
				t.Fatal(err)
			}
			ref.output = make([]int64, outN)
		}
		appendSome := func() {
			for p := range ref.input {
				if rng.Intn(3) == 0 {
					continue
				}
				b := rng.Int63n(1 << uint(rng.Intn(28)))
				ref.input[p] += b
				if err := bus.Append("in", p, b, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		appendSome()

		// Checkpoints a predecessor left: none, behind the log, or ahead of it.
		start := make([]int64, n)
		for i, p := range parts {
			switch rng.Intn(3) {
			case 1:
				start[i] = rng.Int63n(1 << 20)
			case 2:
				start[i] = 1 << 40
			}
			ref.offsets[p] = start[i]
		}
		ckpt.Stop("j", parts, "predecessor", start)

		task := NewTask(spec, &profile, bus, ckpt)
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
		rt := &refTask{spec: spec, profile: &profile, w: ref, offsets: slices.Clone(start)}

		for step := 0; step < 6; step++ {
			dt := []time.Duration{0, time.Second, 10 * time.Second, time.Minute}[rng.Intn(4)]
			got, want := task.Advance(dt), rt.advance(dt)
			if got != want {
				t.Fatalf("step %d (dt %v): Stats\n got  %+v\n want %+v", step, dt, got, want)
			}
			if !slices.Equal(task.offsets, rt.offsets) {
				t.Fatalf("step %d: offsets\n got  %v\n want %v", step, task.offsets, rt.offsets)
			}
			for p := 0; p < top; p++ {
				if g, w := ckpt.Offset("j", p), ref.offsets[p]; g != w {
					t.Fatalf("step %d: checkpointed offset of partition %d = %d, want %d", step, p, g, w)
				}
				if g, w := ckpt.StateSize("j", p), ref.state[p]; g != w {
					t.Fatalf("step %d: state size of partition %d = %d, want %d", step, p, g, w)
				}
			}
			for p, want := range ref.output {
				if got, _, _ := bus.Written("out", p); got != want {
					t.Fatalf("step %d: output partition %d holds %d, want %d", step, p, got, want)
				}
			}
			if got, want := task.Backlog(), rt.backlog(); got != want {
				t.Fatalf("step %d: Backlog = %d, want %d", step, got, want)
			}
			appendSome()
		}
	})
}

// sparseCheckpoints is the checkpoint store as three nested maps, one
// entry per (job, partition) ever touched — the layout the dense per-job
// record replaced, kept as its oracle.
type sparseCheckpoints struct {
	offsets    map[string]map[int]int64
	state      map[string]map[int]int64
	owners     map[string]map[int]string
	violations int
}

func newSparseCheckpoints() *sparseCheckpoints {
	return &sparseCheckpoints{
		offsets: make(map[string]map[int]int64),
		state:   make(map[string]map[int]int64),
		owners:  make(map[string]map[int]string),
	}
}

func (s *sparseCheckpoints) start(job string, partitions []int, instance string) ([]int64, error) {
	owners := s.owners[job]
	for _, p := range partitions {
		if cur, ok := owners[p]; ok && cur != instance {
			s.violations++
			return nil, fmt.Errorf("partition %d of %s owned by %s", p, job, cur)
		}
	}
	if owners == nil {
		owners = make(map[int]string)
		s.owners[job] = owners
	}
	offsets := make([]int64, len(partitions))
	for i, p := range partitions {
		owners[p] = instance
		offsets[i] = s.offsets[job][p]
	}
	return offsets, nil
}

func (s *sparseCheckpoints) set(m map[string]map[int]int64, job string, p int, v int64) {
	if m[job] == nil {
		m[job] = make(map[int]int64)
	}
	m[job][p] = v
}

func (s *sparseCheckpoints) stop(job string, partitions []int, instance string, offsets []int64) {
	for i, p := range partitions {
		s.set(s.offsets, job, p, offsets[i])
		if s.owners[job][p] == instance {
			delete(s.owners[job], p)
		}
	}
}

func (s *sparseCheckpoints) forceRelease(job, instance string) {
	for p, owner := range s.owners[job] {
		if owner == instance {
			delete(s.owners[job], p)
		}
	}
}

func (s *sparseCheckpoints) deleteJob(job string) {
	delete(s.offsets, job)
	delete(s.state, job)
	delete(s.owners, job)
}

// TestCheckpointStoreDenseMatchesSparse drives the dense store and the
// nested-map oracle through the same random history — all-or-nothing
// starts, stops (idempotent, and by instances that hold nothing),
// checkpoints, force releases, job deletion — over partition numbers that
// are sparse and large, and compares every observable after every step.
func TestCheckpointStoreDenseMatchesSparse(t *testing.T) {
	universe := []int{0, 1, 2, 3, 7, 31, 32, 63, 64, 1000, 4097}
	jobs := []string{"a", "b"}
	instances := []string{"t#0@1", "t#0@2", "t#1@3", "t#2@4"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dense, sparse := NewCheckpointStore(), newSparseCheckpoints()
		pick := func() []int {
			parts := make([]int, 1+rng.Intn(4))
			for i := range parts {
				parts[i] = universe[rng.Intn(len(universe))]
			}
			slices.Sort(parts)
			return slices.Compact(parts)
		}
		for step := 0; step < 400; step++ {
			job, inst, parts := jobs[rng.Intn(2)], instances[rng.Intn(len(instances))], pick()
			vals := make([]int64, len(parts))
			for i := range vals {
				vals[i] = rng.Int63n(1 << 30)
			}
			op := rng.Intn(100)
			switch {
			case op < 35:
				got := make([]int64, len(parts))
				err := dense.Start(job, parts, inst, got)
				want, wantErr := sparse.start(job, parts, inst)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("seed %d step %d: Start(%s, %v, %s) = %v, oracle %v", seed, step, job, parts, inst, err, wantErr)
				}
				if err == nil && !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Start restored %v, oracle %v", seed, step, got, want)
				}
			case op < 60:
				dense.Stop(job, parts, inst, vals)
				sparse.stop(job, parts, inst, vals)
			case op < 85:
				offsets, state := vals, int64(-1)
				if rng.Intn(3) == 0 {
					offsets = nil
				}
				if rng.Intn(2) == 0 {
					state = rng.Int63n(1 << 20)
				}
				dense.Checkpoint(job, parts, offsets, state)
				for i, p := range parts {
					if offsets != nil {
						sparse.set(sparse.offsets, job, p, offsets[i])
					}
					if state >= 0 {
						sparse.set(sparse.state, job, p, state)
					}
				}
			case op < 97:
				dense.ForceReleaseTask(job, inst)
				sparse.forceRelease(job, inst)
			default:
				dense.DeleteJob(job)
				sparse.deleteJob(job)
			}

			if dense.Violations() != sparse.violations {
				t.Fatalf("seed %d step %d: %d violations, oracle %d", seed, step, dense.Violations(), sparse.violations)
			}
			for _, j := range jobs {
				if got, want := dense.LiveOwners(j), len(sparse.owners[j]); got != want {
					t.Fatalf("seed %d step %d: LiveOwners(%s) = %d, oracle %d", seed, step, j, got, want)
				}
				var state int64
				for _, b := range sparse.state[j] {
					state += b
				}
				if got := dense.JobState(j); got != state {
					t.Fatalf("seed %d step %d: JobState(%s) = %d, oracle %d", seed, step, j, got, state)
				}
				for _, p := range append([]int{5, 5000}, universe...) { // incl. never mentioned, and beyond the record
					owner, held := dense.Owner(j, p)
					if wantOwner, wantHeld := sparse.owners[j][p]; owner != wantOwner || held != wantHeld {
						t.Fatalf("seed %d step %d: Owner(%s, %d) = %q, %v; oracle %q, %v", seed, step, j, p, owner, held, wantOwner, wantHeld)
					}
					if got, want := dense.Offset(j, p), sparse.offsets[j][p]; got != want {
						t.Fatalf("seed %d step %d: Offset(%s, %d) = %d, oracle %d", seed, step, j, p, got, want)
					}
					if got, want := dense.StateSize(j, p), sparse.state[j][p]; got != want {
						t.Fatalf("seed %d step %d: StateSize(%s, %d) = %d, oracle %d", seed, step, j, p, got, want)
					}
				}
				for _, n := range []int{-1, 0, 3, 64, 65, 4098, 1 << 20} {
					var want int64
					for p, off := range sparse.offsets[j] {
						if p < n {
							want += off
						}
					}
					if got := dense.Consumed(j, n); got != want {
						t.Fatalf("seed %d step %d: Consumed(%s, %d) = %d, oracle %d", seed, step, j, n, got, want)
					}
				}
			}
		}
	}
}

// TestConcurrentAdvanceDisjointTasks runs the tasks of one job — disjoint
// partitions, one shared checkpoint record — each on its own goroutine
// while a generator keeps appending to their category: the lock order
// (task, then bus; task, then checkpoint store; never the two nested) has
// to hold up under -race, and when the dust settles every byte written
// was consumed exactly once.
func TestConcurrentAdvanceDisjointTasks(t *testing.T) {
	const tasks, partitions, rounds = 4, 32, 200
	bus, ckpt := newWorld(t, "j_in", partitions)
	gen := workload.NewGenerator(bus, simclock.NewSim(time.Unix(0, 0)), "j_in", workload.Constant(40<<20), 0)
	prof := DefaultProfile(config.OpAggregate) // stateful: offsets and state in one write
	running := make([]*Task, tasks)
	for i := range running {
		spec := testSpec("j", i, tasks, partitions)
		spec.Operator = config.OpAggregate
		spec.Threads, spec.Resources = 8, config.Resources{CPUCores: 8, MemoryBytes: 64 << 30}
		running[i] = NewTask(spec, prof, bus, ckpt)
		if err := running[i].Start(); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	processed := make([]int64, tasks)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			gen.Tick(time.Second)
		}
	}()
	for i, task := range running {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				processed[i] += task.Advance(time.Second).ProcessedBytes
				ckpt.Consumed("j", partitions) // the monitor reads alongside
			}
		}()
	}
	wg.Wait()

	var total int64
	for i, task := range running {
		for task.Backlog() > 0 {
			processed[i] += task.Advance(time.Minute).ProcessedBytes
		}
		total += processed[i]
	}
	if written := gen.Written(); total != written || ckpt.Consumed("j", partitions) != written || bus.TotalWritten("j_in") != written {
		t.Fatalf("processed %d, checkpointed %d, of %d written (%d on the bus)", total, ckpt.Consumed("j", partitions), written, bus.TotalWritten("j_in"))
	}
	if ckpt.LiveOwners("j") != partitions || ckpt.Violations() != 0 || ckpt.JobState("j") == 0 {
		t.Fatalf("%d live leases, %d violations, %d B of state", ckpt.LiveOwners("j"), ckpt.Violations(), ckpt.JobState("j"))
	}
}
