package jobservice

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/wire"
)

func validConfig(name string) *config.JobConfig {
	return &config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "tailer", Version: "v1"},
		TaskCount:      10,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 1, MemoryBytes: 1 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: 64},
		SLOSeconds:     90,
	}
}

func newService(t *testing.T) *Service {
	t.Helper()
	s := New(jobstore.New())
	if err := s.Provision(validConfig("j1")); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestProvisionValidates(t *testing.T) {
	s := New(jobstore.New())
	bad := validConfig("j1")
	bad.TaskCount = 0
	if err := s.Provision(bad); err == nil {
		t.Fatal("invalid config provisioned")
	}
	if err := s.Provision(validConfig("j1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Provision(validConfig("j1")); err == nil {
		t.Fatal("duplicate provision accepted")
	}
}

func TestDesiredDecodesTyped(t *testing.T) {
	s := newService(t)
	cfg, version, err := s.Desired("j1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TaskCount != 10 || cfg.Package.Version != "v1" {
		t.Fatalf("Desired = %+v", cfg)
	}
	if version != 1 {
		t.Fatalf("version = %d", version)
	}
}

func TestHierarchicalUpdateScenario(t *testing.T) {
	// The paper's §III-A scenario: job at 10 tasks; Auto Scaler says 15,
	// Oncall1 says 20, Oncall2 says 30. Oncall layer outranks Scaler, and
	// the two oncalls serialize via CAS; last write wins within the layer.
	s := newService(t)
	if err := s.SetTaskCount("j1", config.LayerScaler, 15); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTaskCount("j1", config.LayerOncall, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTaskCount("j1", config.LayerOncall, 30); err != nil {
		t.Fatal(err)
	}
	cfg, _, err := s.Desired("j1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TaskCount != 30 {
		t.Fatalf("TaskCount = %d, want 30", cfg.TaskCount)
	}
	// A later scaler write cannot override the oncall: a broken automation
	// service must not overwrite human intervention (§III-A).
	if err := s.SetTaskCount("j1", config.LayerScaler, 5); err != nil {
		t.Fatal(err)
	}
	cfg, _, _ = s.Desired("j1")
	if cfg.TaskCount != 30 {
		t.Fatalf("scaler overrode oncall: TaskCount = %d", cfg.TaskCount)
	}
	// Once the oncall clears its layer, the scaler value shows through.
	if err := s.ClearLayer("j1", config.LayerOncall); err != nil {
		t.Fatal(err)
	}
	cfg, _, _ = s.Desired("j1")
	if cfg.TaskCount != 5 {
		t.Fatalf("after clear, TaskCount = %d, want 5", cfg.TaskCount)
	}
}

func TestUpdateRejectedIfMergedInvalid(t *testing.T) {
	s := newService(t)
	// 999 tasks > 64 partitions: merged config invalid, write rejected.
	err := s.SetTaskCount("j1", config.LayerScaler, 999)
	if err == nil {
		t.Fatal("invalid merged config accepted")
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("unexpected error: %v", err)
	}
	cfg, _, _ := s.Desired("j1")
	if cfg.TaskCount != 10 {
		t.Fatalf("failed update leaked: TaskCount = %d", cfg.TaskCount)
	}
}

func TestSetTaskResources(t *testing.T) {
	s := newService(t)
	err := s.SetTaskResources("j1", config.LayerScaler, config.Resources{
		CPUCores: 3, MemoryBytes: 4 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, _ := s.Desired("j1")
	if cfg.TaskResources.CPUCores != 3 || cfg.TaskResources.MemoryBytes != 4<<30 {
		t.Fatalf("TaskResources = %+v", cfg.TaskResources)
	}
	// Dimensions not set keep the base value... CPU/Memory overridden,
	// base had no disk, still zero.
	if cfg.TaskResources.DiskBytes != 0 {
		t.Fatalf("DiskBytes = %d", cfg.TaskResources.DiskBytes)
	}
}

func TestSetPackageVersionTouchesOnlyPackage(t *testing.T) {
	s := newService(t)
	if err := s.SetPackageVersion("j1", "v2"); err != nil {
		t.Fatal(err)
	}
	cfg, _, _ := s.Desired("j1")
	if cfg.Package.Version != "v2" {
		t.Fatalf("Package.Version = %q", cfg.Package.Version)
	}
	if cfg.Package.Name != "tailer" {
		t.Fatalf("Package.Name clobbered: %q", cfg.Package.Name)
	}
	if cfg.TaskCount != 10 {
		t.Fatalf("TaskCount disturbed: %d", cfg.TaskCount)
	}
}

func TestSetMaxTaskCountAndStopped(t *testing.T) {
	s := newService(t)
	if err := s.SetMaxTaskCount("j1", 32); err != nil {
		t.Fatal(err)
	}
	if err := s.SetStopped("j1", true); err != nil {
		t.Fatal(err)
	}
	cfg, _, _ := s.Desired("j1")
	if cfg.MaxTaskCount != 32 || !cfg.Stopped {
		t.Fatalf("cfg = %+v", cfg)
	}
	// Both live in the oncall layer; the second write must not clobber
	// the first (layer read-modify-write).
	if err := s.SetStopped("j1", false); err != nil {
		t.Fatal(err)
	}
	cfg, _, _ = s.Desired("j1")
	if cfg.MaxTaskCount != 32 {
		t.Fatal("SetStopped clobbered maxTaskCount in the same layer")
	}
}

func TestUpdateUnknownJob(t *testing.T) {
	s := newService(t)
	if err := s.SetTaskCount("ghost", config.LayerScaler, 5); err == nil {
		t.Fatal("update of unknown job accepted")
	}
	if _, _, err := s.Desired("ghost"); err == nil {
		t.Fatal("Desired of unknown job succeeded")
	}
}

func TestConcurrentLayerWritersAllLand(t *testing.T) {
	// Two actors updating *different* paths of the same layer must both
	// land despite CAS contention (read-modify-write consistency, §III-A).
	s := newService(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				err = s.UpdateLayer("j1", config.LayerOncall, wire.Edit{Path: "maxTaskCount", Value: 32})
			} else {
				err = s.UpdateLayer("j1", config.LayerOncall, wire.Edit{Path: "priority", Value: 7})
			}
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	cfg, _, err := s.Desired("j1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxTaskCount != 32 || cfg.Priority != 7 {
		t.Fatalf("lost update: %+v", cfg)
	}
}

func TestDeleteDelegates(t *testing.T) {
	s := newService(t)
	if err := s.Delete("j1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Desired("j1"); err == nil {
		t.Fatal("deleted job still resolvable")
	}
}

func TestSetTaskResourcesAllDimensions(t *testing.T) {
	s := newService(t)
	err := s.SetTaskResources("j1", config.LayerScaler, config.Resources{
		CPUCores: 2, MemoryBytes: 2 << 30, DiskBytes: 10 << 30, NetworkBps: 100 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, _ := s.Desired("j1")
	if cfg.TaskResources.DiskBytes != 10<<30 || cfg.TaskResources.NetworkBps != 100<<20 {
		t.Fatalf("resources = %+v", cfg.TaskResources)
	}
}

// TestSetTaskResourcesRejectsUnwritable: a field that is NaN, infinite
// or negative, or a Resources with no field set, has nothing the scaler
// layer can hold. The write is refused as a rejection, and neither the
// version nor the desired config moves.
func TestSetTaskResourcesRejectsUnwritable(t *testing.T) {
	s := newService(t)
	want, before, _ := s.Desired("j1")
	for _, r := range []config.Resources{
		{CPUCores: math.NaN()},
		{},
		{CPUCores: -2},
		{CPUCores: math.Inf(1), MemoryBytes: 1 << 30},
		{CPUCores: 2, MemoryBytes: -1},
		{DiskBytes: -1},
		{NetworkBps: -1},
	} {
		err := s.SetTaskResources("j1", config.LayerScaler, r)
		if err == nil || !strings.Contains(err.Error(), "rejected") {
			t.Fatalf("%+v: err = %v, want a rejection", r, err)
		}
		cfg, version, err := s.Desired("j1")
		if err != nil {
			t.Fatal(err)
		}
		if version != before || cfg.TaskResources != want.TaskResources {
			t.Fatalf("%+v: version %d → %d, resources %+v → %+v; want no write", r, before, version, want.TaskResources, cfg.TaskResources)
		}
	}
}

// TestClearLayerResetsToEmpty: ClearLayer writes the empty document, not
// an unset layer, and the layers below show through it.
func TestClearLayerResetsToEmpty(t *testing.T) {
	s := newService(t)
	if err := s.SetTaskCount("j1", config.LayerOncall, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.ClearLayer("j1", config.LayerOncall); err != nil {
		t.Fatal(err)
	}
	cfg, _, _ := s.Desired("j1")
	if cfg.TaskCount != 10 {
		t.Fatalf("TaskCount = %d, want base 10", cfg.TaskCount)
	}
	e, err := s.Store().GetExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	if want := docBlob(config.Doc{}); !bytes.Equal(e.Layers[config.LayerOncall], want) {
		t.Fatalf("cleared layer = %x, want the empty document %x", e.Layers[config.LayerOncall], want)
	}
}

// TestUpdateLayerOverlappingEditsRejected: two edits of one path, or one
// through the other, have no order-free meaning, so the write is refused.
func TestUpdateLayerOverlappingEditsRejected(t *testing.T) {
	s := newService(t)
	_, before, _ := s.Desired("j1")
	for _, pair := range [][2]string{{"taskCount", "taskCount"}, {"package", "package.version"}, {"package.version", "package"}} {
		err := s.UpdateLayer("j1", config.LayerOncall, wire.Edit{Path: pair[0], Value: "x"}, wire.Edit{Path: pair[1], Value: "y"})
		if err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Fatalf("edits at %q and %q: err = %v, want an overlap rejection", pair[0], pair[1], err)
		}
	}
	if err := s.UpdateLayer("j1", config.LayerOncall, wire.Edit{Path: "package.version", Value: "v3"}, wire.Edit{Path: "package.versions", Value: "x"}); err != nil {
		t.Fatalf("sibling edits rejected: %v", err)
	}
	if _, after, _ := s.Desired("j1"); after != before+1 {
		t.Fatalf("version %d → %d, want one write", before, after)
	}
}

// TestUpdateLayerUndecodableRejected: an edit whose merge is no JobConfig
// is refused with the error of the field that does not fit, and nothing
// is written.
func TestUpdateLayerUndecodableRejected(t *testing.T) {
	const prefix = "jobservice: update j1/oncall produces undecodable config: decode job config: "
	for _, tc := range []struct {
		edit wire.Edit
		want string
	}{
		{wire.Edit{Path: "taskCount", Value: "x"}, "taskCount: cannot decode a JSON string into the field"},
		{wire.Edit{Path: "taskResources.cpuCores", Value: "x"}, "cpuCores: cannot decode a JSON string into the field"},
		{wire.Edit{Path: "input", Value: 3}, "input: cannot decode a JSON number into the field"},
		{wire.Edit{Path: "taskCount", Value: 2.5}, "taskCount: number 2.5 is not an integer in range"},
	} {
		s := newService(t)
		_, before, _ := s.Desired("j1")
		err := s.UpdateLayer("j1", config.LayerOncall, tc.edit)
		if err == nil || err.Error() != prefix+tc.want {
			t.Errorf("%s = %v: err = %v, want %q", tc.edit.Path, tc.edit.Value, err, prefix+tc.want)
		}
		if _, version, _ := s.Desired("j1"); version != before {
			t.Errorf("%s = %v: rejected update moved the version %d → %d", tc.edit.Path, tc.edit.Value, before, version)
		}
	}
}

// TestNonFiniteResourcesRejected: NaN and ±Inf pass every ordered
// comparison, so Validate names them. An accepted +Inf used to reach the
// Task Service and panic spec generation; a NaN is unequal to itself and
// would restart its task on every snapshot refresh.
func TestNonFiniteResourcesRejected(t *testing.T) {
	s := newService(t)
	_, before, _ := s.Desired("j1")
	for _, cpu := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		err := s.UpdateLayer("j1", config.LayerScaler, wire.Edit{Path: "taskResources.cpuCores", Value: cpu})
		if err == nil || !strings.Contains(err.Error(), "rejected") {
			t.Fatalf("cpuCores %v: err = %v, want a rejection", cpu, err)
		}
		cfg, version, err := s.Desired("j1")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.TaskResources.CPUCores != 1 || version != before {
			t.Fatalf("cpuCores %v: rejected update wrote: cpuCores %v, version %d → %d",
				cpu, cfg.TaskResources.CPUCores, before, version)
		}
		bad := validConfig("j2")
		bad.TaskResources.CPUCores = cpu
		if err := s.Provision(bad); err == nil {
			t.Fatalf("cpuCores %v provisioned", cpu)
		}
	}
}

// TestNonFiniteNumbersRejected: a NaN or an infinity has no JSON form,
// so a store that accepted one could never be snapshotted again. A
// non-finite SLO fails Validate, on Provision and on a layer write; a
// non-finite number under a key the schema does not know fails the
// layer check. Either way nothing is written, and the store still
// snapshots.
func TestNonFiniteNumbersRejected(t *testing.T) {
	s := newService(t)
	_, before, _ := s.Desired("j1")
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, path := range []string{"sloSeconds", "annotations.weight"} {
			err := s.UpdateLayer("j1", config.LayerOncall, wire.Edit{Path: path, Value: x})
			if err == nil || !strings.Contains(err.Error(), "rejected") {
				t.Fatalf("%s %v: err = %v, want a rejection", path, x, err)
			}
		}
		bad := validConfig("j2")
		bad.SLOSeconds = x
		if err := s.Provision(bad); err == nil {
			t.Fatalf("sloSeconds %v provisioned", x)
		}
	}
	if _, version, _ := s.Desired("j1"); version != before {
		t.Fatalf("a rejected update wrote: version %d → %d", before, version)
	}
	if _, err := s.Store().Snapshot(); err != nil {
		t.Fatalf("snapshot after rejected updates: %v", err)
	}
}

// TestLayerWriteRejectedAcrossRecreate: a job deleted and re-created
// between a writer's read and its write is back at version 1, like the
// job the writer read. The write must still fail — its layer and its
// validated merge were built on the old Base — and UpdateLayer's retry
// must apply the change to the new incarnation, validated against it.
func TestLayerWriteRejectedAcrossRecreate(t *testing.T) {
	s := newService(t)
	store := s.Store()
	recreate := func() {
		t.Helper()
		if err := s.Delete("j1"); err != nil {
			t.Fatal(err)
		}
		cfg := validConfig("j1")
		cfg.Input.Partitions = 48
		cfg.Package.Version = "v9"
		if err := s.Provision(cfg); err != nil {
			t.Fatal(err)
		}
	}

	// The store's CAS, directly: version 1 read, version 1 found.
	base, err := store.GetExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	recreate()
	oncall := docBlob(config.Doc{"taskCount": 12})
	stale, err := wire.MergeBlobs([]wire.Blob{base.Layers[0], base.Layers[1], base.Layers[2], oncall})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.SetLayer("j1", config.LayerOncall, oncall, base, &jobstore.Merged{Doc: stale}); !errors.Is(err, jobstore.ErrVersionMismatch) {
		t.Fatalf("write across a re-create: err = %v, want ErrVersionMismatch", err)
	}

	// A re-create with a byte-identical config restarts at the same
	// version with equal layer bytes: the CAS tells the incarnations
	// apart by blob identity, not content.
	base, err = store.GetExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	recreate()
	if again, _ := store.GetExpected("j1"); again.Version != base.Version || !bytes.Equal(again.Layers[0], base.Layers[0]) {
		t.Fatalf("re-create = version %d, base layer %x; want version %d, base layer %x", again.Version, again.Layers[0], base.Version, base.Layers[0])
	}
	if _, err := store.SetLayer("j1", config.LayerOncall, oncall, base, &jobstore.Merged{Doc: stale}); !errors.Is(err, jobstore.ErrVersionMismatch) {
		t.Fatalf("write across a byte-identical re-create: err = %v, want ErrVersionMismatch", err)
	}

	// Through the Job Service: the first attempt loses to a re-create
	// landing between its read and its write; the retry lands.
	calls := 0
	s.beforeWrite = func() {
		calls++
		if calls == 1 {
			recreate()
		}
	}
	err = s.SetTaskCount("j1", config.LayerOncall, 12)
	s.beforeWrite = nil
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("the write was tried %d times, want 2 (the first must lose its CAS)", calls)
	}
	cfg, version, err := s.Desired("j1")
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || cfg.TaskCount != 12 || cfg.Input.Partitions != 48 || cfg.Package.Version != "v9" {
		t.Fatalf("Desired = %+v at version %d; want the new incarnation with taskCount 12 at version 2", cfg, version)
	}
	e, err := store.GetExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	merged, _, _ := store.MergedExpected("j1")
	if want, err := wire.MergeBlobs(e.Layers[:]); err != nil || !bytes.Equal(merged.Doc, want) {
		t.Fatalf("cached merge %x, stored stack merges to %x (%v)", merged.Doc, want, err)
	}
}

// TestVersionsShareProvisionedStrings: every version's config holds the
// very strings the job was provisioned with wherever they did not change,
// so the caller's maps keyed by them find the job's by pointer.
func TestVersionsShareProvisionedStrings(t *testing.T) {
	s := New(jobstore.New())
	cfg := validConfig("j1")
	if err := s.Provision(cfg); err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	for step, write := range []func() error{
		func() error { return nil },
		func() error { return s.SetPackageVersion("j1", "v9") },
		func() error { return s.SetTaskCount("j1", config.LayerScaler, 2) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Desired("j1")
		if err != nil {
			t.Fatal(err)
		}
		if !same(got.Name, cfg.Name) || !same(got.Input.Category, cfg.Input.Category) || !same(got.Package.Name, cfg.Package.Name) {
			t.Fatalf("step %d: Desired's strings are not the provisioned ones", step)
		}
	}
}
