package jobservice

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/config"
	"repro/internal/jobstore"
)

// updateLayerAllocCeiling bounds one validated layer write on a job with
// all 14 fields configured. The path splices the edit into the layer's
// blob (one allocation, the new layer), merges the four layer blobs into
// one, decodes the merge into the typed config, and hands both blobs to
// the store: 3 objects measured. The ceiling is the measured count plus
// a third.
const updateLayerAllocCeiling = 4

// provisionAllocCeiling bounds one Provision of a job with 13 of its 14
// fields configured: the typed config encoded straight to a blob, the
// store's copy of it, the version's decoded config and the entry — 4
// objects — and the growth of the store's maps, 5.3 objects per job
// measured over the batch. Building the document as maps cost 44. The
// ceiling is the measured count plus a third, rounded up.
const provisionAllocCeiling = 8

// BenchmarkUpdateLayer measures the Job Service's write path — the
// per-job cost of a fleet-wide package release: one SetPackageVersion
// (read of the stack, the edit spliced into the layer's blob, trial
// merge, typed decode, Validate, CAS write of the layer and the merge)
// on a fully configured job, held to
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

// BenchmarkProvision measures admitting one fully configured job —
// Validate, the typed encoding, and the store's Create, which keeps its
// own copy of the base layer — held to provisionAllocCeiling by an in-bench
// MemStats delta over a fixed batch, so that one iteration
// (-benchtime=1x) arms it too.
func BenchmarkProvision(b *testing.B) {
	cfg := &config.JobConfig{
		Package:        config.Package{Name: "tailer", Version: "v1"},
		TaskCount:      8,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 1, MemoryBytes: 1 << 30, DiskBytes: 1 << 30, NetworkBps: 1 << 20},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: "in", Partitions: 16},
		Output:         config.Output{Category: "out"},
		CheckpointDir:  "/ckpt/$JOB/$TASK",
		Enforcement:    config.EnforceCgroup,
		Priority:       3,
		MaxTaskCount:   32,
		SLOSeconds:     90,
	}
	const batch = 64
	n := max(b.N, batch)
	names := make([]string, n+batch)
	for i := range names {
		names[i] = "j" + strconv.Itoa(i)
	}
	s := New(jobstore.New())
	provision := func(name string) {
		cfg.Name = name
		if err := s.Provision(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		provision(names[i])
	}
	b.StopTimer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, name := range names[n:] {
		provision(name)
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / batch; per > provisionAllocCeiling {
		b.Fatalf("Provision allocates %.1f objects/op, ceiling %d", per, provisionAllocCeiling)
	}
}
