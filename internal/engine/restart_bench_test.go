package engine

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/scribe"
)

// restartAllocCeiling bounds one task restart — the old instance's Stop,
// then NewTask and Start of its successor — for a 2-partition task of a
// job the checkpoint store has seen before. The restart takes the store's
// lock twice and allocates the Task and its offsets: 2 objects measured.
// A lease owner is a number, so the new incarnation costs no name.
const restartAllocCeiling = 2

// respecAllocCeiling bounds one in-place restart (CheckpointStore.Handover)
// of the same task: its share of one store call that moves a whole batch's
// leases to new incarnation numbers, and nothing allocated.
const respecAllocCeiling = 0

// allocsPerOp returns the objects op allocates per call over a batch of
// 100 calls, the least of up to three batches: MemStats counts the whole
// process, so a runtime goroutine can leak an object into one batch, and
// the ceilings below equal the steady cost, with no room for it. A real
// allocation repeats in every batch.
func allocsPerOp(op func()) float64 {
	const batch = 100
	var m0, m1 runtime.MemStats
	least := -1.0
	for try := 0; try < 3 && least != 0; try++ {
		runtime.ReadMemStats(&m0)
		for i := 0; i < batch; i++ {
			op()
		}
		runtime.ReadMemStats(&m1)
		if per := float64(m1.Mallocs-m0.Mallocs) / batch; least < 0 || per < least {
			least = per
		}
	}
	return least
}

// BenchmarkTaskRestart measures what a Task Manager pays per task when a
// spec changes under it and the task cannot restart in place, held to
// restartAllocCeiling by an in-bench MemStats delta (allocsPerOp), so that
// one iteration (-benchtime=1x) arms it too.
func BenchmarkTaskRestart(b *testing.B) {
	bus := scribe.NewBus()
	if err := bus.CreateCategory("j_in", 4); err != nil {
		b.Fatal(err)
	}
	ckpt := NewCheckpointStore()
	prof := DefaultProfile(config.OpTailer)
	spec := testSpec("j", 1, 2, 4)
	task := NewTask(spec, prof, bus, ckpt)
	if err := task.Start(); err != nil {
		b.Fatal(err)
	}
	restart := func() {
		task.Stop()
		task = NewTask(spec, prof, bus, ckpt)
		if err := task.Start(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restart()
	}
	b.StopTimer()
	if per := allocsPerOp(restart); per > restartAllocCeiling {
		b.Fatalf("task restart allocates %.1f objects/op, ceiling %d", per, restartAllocCeiling)
	}
	if ckpt.LiveOwners("j") != 2 || ckpt.Violations() != 0 {
		b.Fatalf("leases after the restarts: %d live, %d violations", ckpt.LiveOwners("j"), ckpt.Violations())
	}
}

// BenchmarkTaskRespec measures the in-place restart a Task Manager uses
// when changed specs keep their tasks' partitions: one Handover of a batch
// of 16 running tasks of one job, the shape of a package release reaching
// a manager's shards. Each op restarts all 16, and the per-restart cost is
// held to respecAllocCeiling the way BenchmarkTaskRestart is held to its
// own.
func BenchmarkTaskRespec(b *testing.B) {
	const tasks = 16
	bus := scribe.NewBus()
	if err := bus.CreateCategory("j_in", 2*tasks); err != nil {
		b.Fatal(err)
	}
	ckpt := NewCheckpointStore()
	prof := DefaultProfile(config.OpTailer)
	var specs [2][tasks]*TaskSpec
	batch := make([]Respec, tasks)
	for i := range batch {
		specs[0][i] = testSpec("j", i, tasks, 2*tasks)
		specs[1][i] = testSpec("j", i, tasks, 2*tasks)
		specs[1][i].PackageVersion = "v2"
		task := NewTask(specs[0][i], prof, bus, ckpt)
		if err := task.Start(); err != nil {
			b.Fatal(err)
		}
		batch[i] = Respec{Task: task, Profile: prof}
	}
	n := 0
	respec := func() {
		n++
		for i := range batch {
			batch[i].Spec = specs[n%2][i]
		}
		if done := ckpt.Handover(batch); done != tasks {
			b.Fatalf("Handover restarted %d of %d running tasks over their own partitions", done, tasks)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		respec()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/restart")
	if per := allocsPerOp(respec) / tasks; per > respecAllocCeiling {
		b.Fatalf("in-place restart allocates %.2f objects/op, ceiling %d", per, respecAllocCeiling)
	}
	if ckpt.LiveOwners("j") != 2*tasks || ckpt.Violations() != 0 {
		b.Fatalf("leases after the restarts: %d live, %d violations", ckpt.LiveOwners("j"), ckpt.Violations())
	}
}
