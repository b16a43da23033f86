package jobservice

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/config"
	"repro/internal/jobstore"
)

// updateLayerAllocCeiling bounds one validated layer write on a job with
// all 14 fields configured. The path copies the one layer it edits once
// (the caller's mutation edits the copy the store then keeps), merges the
// four layers by aliasing, decodes the merge directly into the typed
// config, and hands the merge to the store as the new version's cache:
// 13 objects measured. The encoding/json round trip plus three deep
// copies of the whole stack it replaced cost 104; the ceiling is half of
// that.
const updateLayerAllocCeiling = 52

// BenchmarkUpdateLayer measures the Job Service's write path — the
// per-job cost of a fleet-wide package release: one SetPackageVersion
// (shared read, clone of the edited layer, trial merge, typed decode,
// Validate, CAS write of the clone and the merge) on a fully configured
// job, held to
// updateLayerAllocCeiling by an in-bench MemStats delta over a fixed
// batch, so that one iteration (-benchtime=1x) arms it too.
func BenchmarkUpdateLayer(b *testing.B) {
	s := New(jobstore.New())
	err := s.Provision(&config.JobConfig{
		Name:           "j1",
		Package:        config.Package{Name: "tailer", Version: "v0"},
		TaskCount:      8,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 1, MemoryBytes: 1 << 30, DiskBytes: 1 << 30, NetworkBps: 1 << 20},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: "j1_in", Partitions: 16},
		Output:         config.Output{Category: "j1_out"},
		CheckpointDir:  "/ckpt/$JOB/$TASK",
		Enforcement:    config.EnforceCgroup,
		Priority:       3,
		MaxTaskCount:   32,
		SLOSeconds:     90,
	})
	if err != nil {
		b.Fatal(err)
	}
	versions := make([]string, 64)
	for i := range versions {
		versions[i] = "v" + strconv.Itoa(i+1)
	}
	if err := s.SetPackageVersion("j1", versions[0]); err != nil { // the layer exists from here on
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SetPackageVersion("j1", versions[i%len(versions)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, v := range versions {
		if err := s.SetPackageVersion("j1", v); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / float64(len(versions)); per > updateLayerAllocCeiling {
		b.Fatalf("UpdateLayer allocates %.1f objects/op, ceiling %d", per, updateLayerAllocCeiling)
	}
}
