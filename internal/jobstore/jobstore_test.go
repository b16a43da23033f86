package jobstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/wire"
)

func baseDoc() config.Doc {
	return config.Doc{
		"name":      "j1",
		"taskCount": 10,
		"package":   config.Doc{"name": "tailer", "version": "v1"},
	}
}

// cfgOf decodes the typed config of a blob the store holds.
func cfgOf(t *testing.T, b wire.Blob) *config.JobConfig {
	t.Helper()
	c, err := wire.DecodeJobConfigBlob(b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// docOf decodes a blob the store holds.
func docOf(t *testing.T, b wire.Blob) config.Doc {
	t.Helper()
	d, err := b.Doc()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCreateAndGetExpected(t *testing.T) {
	s := New()
	if err := s.Create("j1", docBlob(baseDoc()), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("j1", docBlob(baseDoc()), nil); err == nil {
		t.Fatal("duplicate create accepted")
	}
	e, err := s.GetExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 1 {
		t.Fatalf("Version = %d, want 1", e.Version)
	}
	if v := cfgOf(t, e.Layers[config.LayerBase]).TaskCount; v != 10 {
		t.Fatalf("base taskCount = %v", v)
	}
	if _, err := s.GetExpected("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestCreateRejectsOverlongName: Create refuses a job name one byte over
// config.MaxJobNameLen and takes one at the bound.
func TestCreateRejectsOverlongName(t *testing.T) {
	s := New()
	long := strings.Repeat("n", config.MaxJobNameLen+1)
	if err := s.Create(long, docBlob(baseDoc()), nil); err == nil {
		t.Fatal("Create took a name over the bound")
	}
	if _, err := s.GetExpected(long); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused job is readable: %v", err)
	}
	if err := s.Create(long[1:], docBlob(baseDoc()), nil); err != nil {
		t.Fatalf("a name at the bound: %v", err)
	}
}

func TestCreateIsolatesCallerDoc(t *testing.T) {
	s := New()
	d := baseDoc()
	s.Create("j1", docBlob(d), nil)
	d["taskCount"] = 999 // caller mutates after create
	e, _ := s.GetExpected("j1")
	if v := cfgOf(t, e.Layers[config.LayerBase]).TaskCount; v != 10 {
		t.Fatalf("store aliased caller's doc: taskCount = %v", v)
	}
}

func TestSetLayerCAS(t *testing.T) {
	s := New()
	s.Create("j1", docBlob(baseDoc()), nil)
	base, err := s.GetExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.SetLayer("j1", config.LayerScaler, docBlob(config.Doc{"taskCount": 15}), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("new version = %d, want 2", v)
	}
	// Stale write rejected.
	if _, err := s.SetLayer("j1", config.LayerOncall, docBlob(config.Doc{"taskCount": 30}), base, nil); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale write err = %v, want ErrVersionMismatch", err)
	}
	// A base of the right version but other layer blobs is stale too: an
	// equal copy proves nothing about the stored stack.
	clone, _ := s.GetExpected("j1")
	for i, l := range clone.Layers {
		clone.Layers[i] = bytes.Clone(l)
	}
	if _, err := s.SetLayer("j1", config.LayerOncall, docBlob(config.Doc{"taskCount": 30}), clone, nil); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("write on a copied base err = %v, want ErrVersionMismatch", err)
	}
	// AnyVersion bypasses.
	if _, err := s.SetLayer("j1", config.LayerOncall, docBlob(config.Doc{"taskCount": 30}), Expected{Version: AnyVersion}, nil); err != nil {
		t.Fatal(err)
	}
	// Invalid layer rejected.
	if _, err := s.SetLayer("j1", config.Layer(9), docBlob(config.Doc{}), Expected{Version: AnyVersion}, nil); err == nil {
		t.Fatal("invalid layer accepted")
	}
	// Unknown job rejected.
	if _, err := s.SetLayer("nope", config.LayerBase, docBlob(config.Doc{}), Expected{Version: AnyVersion}, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestMergedExpectedPrecedence(t *testing.T) {
	s := New()
	s.Create("j1", docBlob(baseDoc()), nil)
	s.SetLayer("j1", config.LayerScaler, docBlob(config.Doc{"taskCount": 15}), Expected{Version: AnyVersion}, nil)
	s.SetLayer("j1", config.LayerOncall, docBlob(config.Doc{"taskCount": 30}), Expected{Version: AnyVersion}, nil)
	m, version, err := s.MergedExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Config.TaskCount; v != 30 {
		t.Fatalf("merged taskCount = %v, want 30 (oncall wins)", v)
	}
	if v := m.Config.Package.Version; v != "v1" {
		t.Fatalf("merged package.version = %v (base must survive)", v)
	}
	if version != 3 {
		t.Fatalf("version = %d, want 3", version)
	}
}

func TestRunningLifecycle(t *testing.T) {
	s := New()
	if _, ok := s.GetRunningShared("j1"); ok {
		t.Fatal("phantom running entry")
	}
	s.CommitRunning("j1", committed(config.Doc{"taskCount": 10}), 5)
	r, version, ok := s.RunningDoc("j1")
	if !ok || version != 5 {
		t.Fatalf("running = %+v,%d,%v", r, version, ok)
	}
	if v := r.Config.TaskCount; v != 10 {
		t.Fatalf("running taskCount = %v", v)
	}
	s.DropRunning("j1")
	if _, ok := s.GetRunningShared("j1"); ok {
		t.Fatal("running entry survived drop")
	}
}

func TestDeleteLeavesRunningForSyncer(t *testing.T) {
	s := New()
	s.Create("j1", docBlob(baseDoc()), nil)
	s.CommitRunning("j1", committed(baseDoc()), 1)
	if err := s.Delete("j1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetExpected("j1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("expected entry survived delete")
	}
	if _, ok := s.GetRunningShared("j1"); !ok {
		t.Fatal("running entry must remain until syncer stops tasks")
	}
	if err := s.Delete("j1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("double delete accepted")
	}
}

func TestNamesSorted(t *testing.T) {
	s := New()
	s.Create("zj", docBlob(baseDoc()), nil)
	s.Create("aj", docBlob(baseDoc()), nil)
	s.CommitRunning("mj", committed(config.Doc{}), 1)
	if got := s.ExpectedNames(); len(got) != 2 || got[0] != "aj" {
		t.Fatalf("ExpectedNames = %v", got)
	}
	if got := s.RunningNames(); len(got) != 1 || got[0] != "mj" {
		t.Fatalf("RunningNames = %v", got)
	}
}

func TestQuarantine(t *testing.T) {
	s := New()
	s.Create("j1", docBlob(baseDoc()), nil)
	s.SetQuarantine("j1", "5 consecutive sync failures")
	q, ok := s.Quarantined("j1")
	if !ok || q.Reason == "" {
		t.Fatalf("Quarantined = %+v,%v", q, ok)
	}
	if names := s.QuarantinedNames(); len(names) != 1 || names[0] != "j1" {
		t.Fatalf("QuarantinedNames = %v", names)
	}
	s.ClearQuarantine("j1")
	if _, ok := s.Quarantined("j1"); ok {
		t.Fatal("quarantine survived clear")
	}
}

func TestDeleteClearsQuarantine(t *testing.T) {
	s := New()
	s.Create("j1", docBlob(baseDoc()), nil)
	s.SetQuarantine("j1", "x")
	s.Delete("j1")
	if _, ok := s.Quarantined("j1"); ok {
		t.Fatal("quarantine survived job delete")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	s.Create("j1", docBlob(baseDoc()), nil)
	s.SetLayer("j1", config.LayerScaler, docBlob(config.Doc{"taskCount": 15}), Expected{Version: AnyVersion}, nil)
	s.CommitRunning("j1", committed(config.Doc{"taskCount": 15}), 2)
	s.SetQuarantine("j2", "test")
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored := New()
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	m, version, err := restored.MergedExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Config.TaskCount; v != 15 {
		t.Fatalf("restored taskCount = %v", v)
	}
	if version != 2 {
		t.Fatalf("restored version = %d", version)
	}
	if _, ok := restored.GetRunningShared("j1"); !ok {
		t.Fatal("running entry lost in restore")
	}
	// The typed config is not serialized: Restore decodes it, once.
	_, v, _ := restored.RunningDoc("j1")
	if cfg, _, ok := restored.RunningEntry("j1"); !ok || cfg == nil || cfg.TaskCount != 15 || v != 2 {
		t.Fatalf("restored running entry = %+v at version %d (%v)", cfg, v, ok)
	}
	if _, ok := restored.Quarantined("j2"); !ok {
		t.Fatal("quarantine lost in restore")
	}
	if err := restored.Restore([]byte("not json")); err == nil {
		t.Fatal("garbage restore accepted")
	}
}

// TestRunningEntryIsTyped: a running entry carries the JobConfig of its
// document. A commit keeps the one it is handed, decodes its own from a
// blob committed without one, and a document that is no JobConfig has
// none; a blob that is no document is refused.
func TestRunningEntryIsTyped(t *testing.T) {
	s := New()
	s.Create("j1", docBlob(baseDoc()), nil)
	m, v, err := s.MergedExpected("j1")
	if err != nil || m.Config == nil {
		t.Fatalf("merge = %+v, %v", m, err)
	}
	s.CommitRunning("j1", m, v)
	if cfg, _, _ := s.RunningEntry("j1"); cfg != m.Config {
		t.Fatalf("commit with a config: running config %p, committed %p", cfg, m.Config)
	}
	s.CommitRunning("j1", committed(config.Doc{"taskCount": 3}), v)
	if cfg, _, _ := s.RunningEntry("j1"); cfg == nil || cfg.TaskCount != 3 {
		t.Fatalf("blob-only commit: running config %+v, want taskCount 3", cfg)
	}
	s.CommitRunning("j1", committed(config.Doc{"taskCount": "three"}), v)
	if cfg, _, ok := s.RunningEntry("j1"); !ok || cfg != nil {
		t.Fatalf("undecodable commit: running config %+v (%v), want nil", cfg, ok)
	}
	if err := s.CommitRunning("j1", Merged{Doc: wire.Blob{0xff}}, v); err == nil {
		t.Fatal("commit of a malformed blob accepted")
	}
}

func TestConcurrentCASOneWinnerPerVersion(t *testing.T) {
	s := New()
	s.Create("j1", docBlob(baseDoc()), nil)
	const writers = 16
	var wg sync.WaitGroup
	wins := make(chan int64, writers)
	// Barrier: every writer bases its decision on the SAME version read,
	// then all write concurrently. Exactly one CAS may win.
	var ready sync.WaitGroup
	ready.Add(writers)
	start := make(chan struct{})
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := s.GetExpected("j1")
			ready.Done()
			if err != nil {
				return
			}
			<-start
			v, err := s.SetLayer("j1", config.LayerOncall, docBlob(config.Doc{"taskCount": i}), e, nil)
			if err == nil {
				wins <- v
			}
		}()
	}
	ready.Wait()
	close(start)
	wg.Wait()
	close(wins)
	// All writers read version 1 concurrently; exactly one CAS can win.
	var count int
	for range wins {
		count++
	}
	if count != 1 {
		t.Fatalf("%d writers won CAS from the same base version, want exactly 1", count)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")

	s := New()
	s.Create("j1", docBlob(baseDoc()), nil)
	s.CommitRunning("j1", committed(baseDoc()), 1)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// No stray temp file.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}

	restored := New()
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if len(restored.ExpectedNames()) != 1 {
		t.Fatalf("names = %v", restored.ExpectedNames())
	}
	if _, ok := restored.GetRunningShared("j1"); !ok {
		t.Fatal("running entry lost")
	}

	// Missing file: clean first boot.
	fresh := New()
	if err := fresh.LoadFile(filepath.Join(dir, "nope.json")); err != nil {
		t.Fatal(err)
	}
	if len(fresh.ExpectedNames()) != 0 {
		t.Fatal("phantom jobs on first boot")
	}
	// Corrupt file: explicit error.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if err := fresh.LoadFile(bad); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}
