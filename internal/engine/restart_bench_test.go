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

// respecAllocCeiling bounds one in-place restart (Task.Respec) of the same
// task: one checkpoint-store call that moves the leases to a new
// incarnation number, and nothing allocated.
const respecAllocCeiling = 0

// BenchmarkTaskRestart measures what a Task Manager pays per task when a
// spec changes under it (a package release restarts every task of the
// fleet), held to restartAllocCeiling by an in-bench MemStats delta over
// a fixed batch, so that one iteration (-benchtime=1x) arms it too.
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
	const batch = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < batch; i++ {
		restart()
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / batch; per > restartAllocCeiling {
		b.Fatalf("task restart allocates %.1f objects/op, ceiling %d", per, restartAllocCeiling)
	}
	if ckpt.LiveOwners("j") != 2 || ckpt.Violations() != 0 {
		b.Fatalf("leases after the restarts: %d live, %d violations", ckpt.LiveOwners("j"), ckpt.Violations())
	}
}

// BenchmarkTaskRespec measures the in-place restart a Task Manager uses
// when a changed spec keeps the task's partitions, held to
// respecAllocCeiling the way BenchmarkTaskRestart is held to its own.
func BenchmarkTaskRespec(b *testing.B) {
	bus := scribe.NewBus()
	if err := bus.CreateCategory("j_in", 4); err != nil {
		b.Fatal(err)
	}
	ckpt := NewCheckpointStore()
	prof := DefaultProfile(config.OpTailer)
	specs := [2]*TaskSpec{testSpec("j", 1, 2, 4), testSpec("j", 1, 2, 4)}
	specs[1].PackageVersion = "v2"
	task := NewTask(specs[0], prof, bus, ckpt)
	if err := task.Start(); err != nil {
		b.Fatal(err)
	}
	n := 0
	respec := func() {
		n++
		if !task.Respec(specs[n%2], prof) {
			b.Fatal("Respec refused a running task's same-partition spec")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		respec()
	}
	b.StopTimer()
	const batch = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < batch; i++ {
		respec()
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / batch; per > respecAllocCeiling {
		b.Fatalf("in-place restart allocates %.1f objects/op, ceiling %d", per, respecAllocCeiling)
	}
	if ckpt.LiveOwners("j") != 2 || ckpt.Violations() != 0 {
		b.Fatalf("leases after the restarts: %d live, %d violations", ckpt.LiveOwners("j"), ckpt.Violations())
	}
}
