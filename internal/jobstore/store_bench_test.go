package jobstore

import (
	"fmt"
	"testing"

	"repro/internal/config"
)

func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	s := New()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("j%05d", i)
		doc := config.Doc{
			"name": name, "taskCount": 4,
			"package":       config.Doc{"name": "tailer", "version": "v1"},
			"taskResources": config.Doc{"cpuCores": 0.5, "memoryBytes": 1 << 29},
			"input":         config.Doc{"category": name + "_in", "partitions": 16},
		}
		if err := s.Create(name, docBlob(doc), nil); err != nil {
			b.Fatal(err)
		}
		merged, v, err := s.MergedExpected(name)
		if err != nil {
			b.Fatal(err)
		}
		s.CommitRunning(name, merged, v)
	}
	return s
}

// BenchmarkCommitRunningFanIn measures concurrent CommitRunning calls
// across distinct jobs — the State Syncer's batched simple-sync commit
// path under parallelism, committing a merge with its config.
func BenchmarkCommitRunningFanIn(b *testing.B) {
	s := benchStore(b, 50_000)
	names := make([]string, 50_000)
	for i := range names {
		names[i] = fmt.Sprintf("j%05d", i)
	}
	cfg := decoded(docBlob(config.Doc{"taskCount": 4, "package": config.Doc{"version": "v2"}}))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.CommitRunning(names[i%50_000], cfg, 1)
			i++
		}
	})
}

// BenchmarkMergedExpectedHit measures the clone-free cache-hit read the
// State Syncer performs per examined job.
func BenchmarkMergedExpectedHit(b *testing.B) {
	s := benchStore(b, 1024)
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("j%05d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.MergedExpected(names[i%1024]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunningNames50k measures listing every running job name — the
// copy-on-write snapshot the monitor, the Task Service and the spec
// feed's resync walk read.
func BenchmarkRunningNames50k(b *testing.B) {
	s := benchStore(b, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(s.RunningNames()); got != 50_000 {
			b.Fatalf("names = %d", got)
		}
	}
}

// BenchmarkDivergedRange50kConverged measures reading the diverged set
// of a converged 50 000-job store, every stripe — a State Syncer round's
// candidate feed: one read lock per stripe, nothing found, nothing
// allocated.
func BenchmarkDivergedRange50kConverged(b *testing.B) {
	s := benchStore(b, 50_000)
	var buf []string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf = s.DivergedRangeInto(0, NumStripes, buf[:0]); len(buf) != 0 {
			b.Fatalf("%d diverged jobs in a converged store", len(buf))
		}
	}
}
