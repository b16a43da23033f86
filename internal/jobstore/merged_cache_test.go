package jobstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/wire"
)

func TestMergedExpectedCachedPerVersion(t *testing.T) {
	s := New()
	first := docBlob(config.Doc{"taskCount": 4, "pkg": config.Doc{"version": "v1"}})
	if err := s.Create("j1", first, nil); err != nil {
		t.Fatal(err)
	}

	// The first read of a version merges; every later one is served the
	// same cached blob. A single layer's merge is that layer's blob.
	m1, v1, err := s.MergedExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := s.MergedExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	if !sameBlob(m1.Doc, m2.Doc) || m1.Config == nil || m1.Config != m2.Config {
		t.Fatal("second read of one version merged or decoded again")
	}
	if base, _ := s.GetExpected("j1"); !sameBlob(m1.Doc, base.Layers[config.LayerBase]) {
		t.Fatal("a one-layer merge copied its layer")
	}

	// A caller owns the document it decodes from the merge: mutating it
	// must not poison the cache.
	c, err := m1.Doc.Doc()
	if err != nil {
		t.Fatal(err)
	}
	c["pkg"].(config.Doc)["version"] = "corrupted"
	m3, _, err := s.MergedExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m3.Doc, first) {
		t.Fatalf("caller mutation leaked into cache: %v", docOf(t, m3.Doc))
	}

	// A layer write that hands over its merge installs it: the next read
	// serves that very blob.
	base, err := s.GetExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	oncall := docBlob(config.Doc{"pkg": config.Doc{"version": "v2"}})
	merged := decoded(mergeOf(t, base.Layers[0], base.Layers[1], base.Layers[2], oncall))
	if _, err := s.SetLayer("j1", config.LayerOncall, oncall, base, &merged); err != nil {
		t.Fatal(err)
	}
	m4, v4, err := s.MergedExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	if v4 != v1+1 || !sameBlob(m4.Doc, merged.Doc) || m4.Config != merged.Config {
		t.Fatalf("read after a write with its merge: version %d, served the written merge = %v; want %d, true", v4, sameBlob(m4.Doc, merged.Doc), v1+1)
	}

	// A write without one moves the version and invalidates the cache: the
	// next read merges the new stack, once.
	if _, err := s.SetLayer("j1", config.LayerOncall, docBlob(config.Doc{"pkg": config.Doc{"version": "v3"}}), Expected{Version: AnyVersion}, nil); err != nil {
		t.Fatal(err)
	}
	m5, _, err := s.MergedExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := m5.Doc.Doc(); d["pkg"].(config.Doc)["version"] != "v3" {
		t.Fatalf("stale merge served after SetLayer: %v", d)
	}
	if m6, _, _ := s.MergedExpected("j1"); !sameBlob(m5.Doc, m6.Doc) || m5.Config != m6.Config {
		t.Fatal("post-write reads merged more than once")
	}
}

// sameBlob reports whether a and b are the same bytes in memory.
func sameBlob(a, b wire.Blob) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// mergeOf is the Job Service's merge of a stack.
func mergeOf(t *testing.T, layers ...wire.Blob) wire.Blob {
	m, err := wire.MergeBlobs(layers)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// writeLayer is the Job Service's layer write as the store sees it: a
// read of the stack, the new layer made from the current one by next, the
// merge of the new stack, and the compare-and-set write that hands both
// over — retried while the CAS fails.
func writeLayer(t *testing.T, s *Store, name string, layer config.Layer, next func(wire.Blob) wire.Blob) error {
	for {
		base, err := s.GetExpected(name)
		if err != nil {
			return err
		}
		doc := next(base.Layers[layer])
		layers := base.Layers
		layers[layer] = doc
		merged := decoded(mergeOf(t, layers[:]...))
		if _, err := s.SetLayer(name, layer, doc, base, &merged); !errors.Is(err, ErrVersionMismatch) {
			return err
		}
	}
}

// editOf is the Job Service's edit of a layer: e spliced into b.
func editOf(t *testing.T, b wire.Blob, e wire.Edit) wire.Blob {
	d, err := wire.EditBlob(b, e)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mergedMatchesStack checks the job's merged cache against a fresh
// wire.MergeBlobs of its layers, and its config against a decode of the
// cached doc, at the entry's version. The stack is read before and after
// the merged doc, and the check is made only if both reads found the
// very same stack: a version alone does not name one, since a deleted
// and re-created job counts from 1 again. It reports false without
// checking when a concurrent write got in between. Safe to call from any
// goroutine: a mismatch is reported with t.Errorf.
func mergedMatchesStack(t *testing.T, s *Store, name, step string) bool {
	t.Helper()
	e, err := s.GetExpected(name)
	got, v, mErr := s.MergedExpected(name)
	after, aErr := s.GetExpected(name)
	if err != nil || mErr != nil || aErr != nil {
		return errors.Is(err, ErrNotFound) && errors.Is(mErr, ErrNotFound) && errors.Is(aErr, ErrNotFound)
	}
	if v != e.Version || after.Version != e.Version || !sameLayers(&after.Layers, &e.Layers) {
		return false
	}
	if want, err := wire.MergeBlobs(e.Layers[:]); err != nil || !bytes.Equal(got.Doc, want) {
		t.Errorf("%s: %s at version %d: cached merge %x, stack merges to %x (%v)", step, name, v, got.Doc, want, err)
	}
	if want := decoded(got.Doc).Config; !reflect.DeepEqual(got.Config, want) {
		t.Errorf("%s: %s at version %d: cached config %+v, the merge decodes to %+v", step, name, v, got.Config, want)
	}
	return true
}

// randomStackOp applies one random change to a job's expected stack and
// describes it: a Job Service layer write (with its merge) or layer clear,
// an AnyVersion write (without one), a write from a stack read before
// another write, or before a delete and re-create of the job — both of
// which must fail and install nothing — a delete, a (re-)create with a
// new base, and Restore(Snapshot()).
func randomStackOp(t *testing.T, s *Store, rng *rand.Rand, names []string) string {
	name := names[rng.Intn(len(names))]
	layer := config.Layer(1 + rng.Intn(3))
	n := rng.Intn(100)
	set := func() wire.Edit {
		switch rng.Intn(3) {
		case 0:
			return wire.Edit{Path: "taskCount", Value: n}
		case 1:
			return wire.Edit{Path: "package.version", Value: fmt.Sprintf("v%d", n)}
		default:
			return wire.Edit{Path: "input.partitions", Value: n}
		}
	}
	update := func(b wire.Blob) wire.Blob { return editOf(t, b, set()) }
	switch rng.Intn(8) {
	case 0, 1:
		writeLayer(t, s, name, layer, update)
		return fmt.Sprintf("UpdateLayer %s/%s", name, layer)
	case 2:
		writeLayer(t, s, name, layer, func(wire.Blob) wire.Blob { return docBlob(config.Doc{}) })
		return fmt.Sprintf("ClearLayer %s/%s", name, layer)
	case 3:
		s.SetLayer(name, layer, editOf(t, nil, set()), Expected{Version: AnyVersion}, nil)
		return fmt.Sprintf("AnyVersion write %s/%s", name, layer)
	case 4:
		base, err := s.GetExpected(name)
		if err != nil {
			return "stale read of missing " + name
		}
		step := "write after another write"
		if rng.Intn(2) == 0 {
			writeLayer(t, s, name, config.Layer(1+rng.Intn(3)), update)
		} else {
			step = "write across a re-create"
			s.Delete(name)
			s.Create(name, docBlob(config.Doc{"name": name, "taskCount": n}), nil)
		}
		next := editOf(t, nil, set())
		layers := base.Layers
		layers[layer] = next
		merged := decoded(mergeOf(t, layers[:]...))
		if _, err := s.SetLayer(name, layer, next, base, &merged); !errors.Is(err, ErrVersionMismatch) && !errors.Is(err, ErrNotFound) {
			t.Errorf("%s of %s: err = %v, want ErrVersionMismatch", step, name, err)
		}
		return fmt.Sprintf("%s %s/%s", step, name, layer)
	case 5:
		s.Delete(name)
		return "Delete " + name
	case 6:
		s.Create(name, docBlob(config.Doc{"name": name, "taskCount": n, "input": config.Doc{"partitions": n + 1}}), nil)
		return "Create " + name
	default:
		data, err := s.Snapshot()
		if err == nil {
			err = s.Restore(data)
		}
		if err != nil {
			t.Errorf("Restore(Snapshot()): %v", err)
		}
		return "Restore(Snapshot())"
	}
}

// TestMergedCacheEqualsStack: through random sequences of layer writes
// (with the writer's merge handed over, and without), clears, stale and
// cross-incarnation writes, deletes, re-creates and Restores, the merged
// document the store serves is, after every op, the merge of the layers
// it stores, at the entry's version.
func TestMergedCacheEqualsStack(t *testing.T) {
	names := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for i := 0; i < 200; i++ {
			step := fmt.Sprintf("seed %d op %d: %s", seed, i, randomStackOp(t, s, rng, names))
			for _, name := range names {
				if !mergedMatchesStack(t, s, name, step) {
					t.Fatalf("%s: %s: stack and merged reads disagree with no concurrent writer", step, name)
				}
			}
			if t.Failed() {
				return
			}
		}
	}
}

// TestMergedCacheEqualsStackConcurrent is the same property with writers
// racing on a few jobs (run it under -race): each checks the jobs after
// its own ops whenever no other write moved the version in between, and
// every job is checked once they are done.
func TestMergedCacheEqualsStackConcurrent(t *testing.T) {
	names := []string{"a", "b", "c"}
	s := New()
	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + w))
			for i := 0; i < 150; i++ {
				step := fmt.Sprintf("writer %d op %d: %s", w, i, randomStackOp(t, s, rng, names))
				for _, name := range names {
					mergedMatchesStack(t, s, name, step)
				}
			}
		}()
	}
	wg.Wait()
	for _, name := range names {
		if !mergedMatchesStack(t, s, name, "after the writers") {
			t.Fatalf("%s: stack and merged reads disagree after the writers", name)
		}
	}
}

// TestEntryRevisionMovesOnEveryCommit: RunningEntry's revision moves on
// every commit of new content, and with it the journal head; a commit of
// the bytes the entry holds moves only its version. Restore restamps it.
func TestEntryRevisionMovesOnEveryCommit(t *testing.T) {
	s := New()
	if _, _, ok := s.RunningEntry("ghost"); ok {
		t.Fatal("revision for missing job")
	}
	s.CommitRunning("j1", committed(config.Doc{"taskCount": 1}), 1)
	_, r1, ok := s.RunningEntry("j1")
	if !ok {
		t.Fatal("no revision after commit")
	}
	// New content under the SAME version must move the revision: caches
	// keyed on it can never serve a stale config.
	s.CommitRunning("j1", committed(config.Doc{"taskCount": 2}), 1)
	_, r2, _ := s.RunningEntry("j1")
	if r2 <= r1 {
		t.Fatalf("revision did not advance: %d -> %d", r1, r2)
	}
	// The same content under a new version moves the version only.
	head := s.JournalHead()
	s.CommitRunning("j1", committed(config.Doc{"taskCount": 2}), 2)
	_, v, _ := s.RunningDoc("j1")
	if _, r3, _ := s.RunningEntry("j1"); r3 != r2 || v != 2 || s.JournalHead() != head {
		t.Fatalf("identical commit: revision %d -> %d, version %d, journal head %d -> %d; want revision and head unchanged, version 2", r2, r3, v, head, s.JournalHead())
	}

	// Restore restamps revisions so post-restore reads rebuild caches.
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if _, r, ok := s2.RunningEntry("j1"); !ok || r == 0 {
		t.Fatalf("restored revision = %d, ok=%v; want fresh nonzero", r, ok)
	}
}
