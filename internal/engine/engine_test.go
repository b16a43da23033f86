package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"

	"repro/internal/config"
	"repro/internal/scribe"
)

func testSpec(job string, index, of, partitions int) *TaskSpec {
	return &TaskSpec{
		JobSpec: &JobSpec{
			Job:            job,
			TaskCount:      of,
			PackageName:    "tailer",
			PackageVersion: "v1",
			Threads:        2,
			Operator:       config.OpTailer,
			InputCategory:  job + "_in",
			Resources:      config.Resources{CPUCores: 2, MemoryBytes: 2 << 30},
			Enforcement:    config.EnforceCgroup,
		},
		Index:      index,
		Partitions: AssignPartitions(partitions, of, index),
	}
}

func newWorld(t *testing.T, category string, parts int) (*scribe.Bus, *CheckpointStore) {
	t.Helper()
	bus := scribe.NewBus()
	if err := bus.CreateCategory(category, parts); err != nil {
		t.Fatal(err)
	}
	return bus, NewCheckpointStore()
}

func TestTaskID(t *testing.T) {
	s := testSpec("j1", 0, 2, 8)
	if s.ID() != "j1#0" {
		t.Fatalf("ID = %q", s.ID())
	}
	if TaskID("j1", 3) != "j1#3" {
		t.Fatal("TaskID format changed")
	}
}

// TestEqualCoversEveryField flips each field of a TaskSpec in turn, by
// reflection and down through nested structs and the JobSpec template,
// and requires Equal to notice: a field added to the spec, the template
// (or config.Resources) without extending Equal fails here. Each flip
// lands on a private copy of the template, so it can never reach base
// through a shared pointer.
func TestEqualCoversEveryField(t *testing.T) {
	base := testSpec("j1", 1, 2, 8)
	base.OutputCategory, base.CheckpointDir, base.Priority = "out", "/ckpt/j1/1", 3
	clone := func() *TaskSpec {
		c := *base
		tmpl := *base.JobSpec
		c.JobSpec = &tmpl
		c.Partitions = slices.Clone(base.Partitions)
		return &c
	}
	if same := clone(); !base.Equal(same) || !same.Equal(base) || !base.Equal(base) {
		t.Fatal("a field-for-field copy is not Equal")
	}
	typ := reflect.TypeOf(*base)
	for _, path := range leafFields(typ, nil) {
		name := fieldName(typ, path)
		flipped := clone()
		v := reflect.ValueOf(flipped).Elem().FieldByIndex(path)
		switch {
		case !v.CanSet():
			t.Fatalf("field %s is unexported: Equal and this test compare exported state only", name)
		case v.Kind() == reflect.String:
			v.SetString(v.String() + "'")
		case v.CanInt():
			v.SetInt(v.Int() + 1)
		case v.CanFloat():
			v.SetFloat(v.Float() + 0.5)
		case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Int:
			v.Index(v.Len() - 1).SetInt(-1)
		default:
			t.Fatalf("field %s: no flip for a %s; teach this test the new type", name, v.Type())
		}
		if base.Equal(flipped) || flipped.Equal(base) {
			t.Errorf("Equal ignores field %s", name)
		}
	}
	// Nil and empty partition sets are the same assignment.
	none, empty := clone(), clone()
	none.Partitions, empty.Partitions = nil, []int{}
	if !none.Equal(empty) {
		t.Error("nil and empty Partitions differ")
	}
	// Distinct but equal templates are the same job; one template does
	// not make two tasks the same.
	if other := clone(); other.JobSpec == base.JobSpec || !base.Equal(other) || !other.Equal(base) {
		t.Error("specs with distinct but equal templates are not Equal")
	}
	sibling := *base
	sibling.Index++
	if base.Equal(&sibling) || sibling.Equal(base) {
		t.Error("specs sharing one template are Equal across task indexes")
	}
}

// leafFields lists the index paths of every non-struct field of t,
// descending into struct-typed fields and embedded struct pointers.
func leafFields(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		path := append(slices.Clone(prefix), i)
		ft := t.Field(i).Type
		if t.Field(i).Anonymous && ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, leafFields(ft, path)...)
		} else {
			out = append(out, path)
		}
	}
	return out
}

// fieldName spells a leafFields path as a selector chain.
func fieldName(t reflect.Type, path []int) string {
	names := make([]string, len(path))
	for i, k := range path {
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		names[i] = t.Field(k).Name
		t = t.Field(k).Type
	}
	return strings.Join(names, ".")
}

// FuzzSpecEqualMatchesJSON pins value identity to the content hash it
// replaced. The parent commit restarted a task when the MD5 of its spec's
// json.Marshal form changed; Equal must decide the same for every pair of
// specs, so a.Equal(&b) ⇔ the two JSON forms are byte-equal — up to two
// stated differences, both normalised away here before marshalling:
//
//   - nil and empty Partitions marshal as null and [] but are Equal (the
//     Task Service emits neither for a valid job: every task owns at
//     least one partition);
//   - json.Marshal coerces every invalid UTF-8 byte to U+FFFD, so it could
//     not tell "\xff" from "\xfe"; Equal compares bytes. Such pairs are
//     skipped.
//
// ±0 is no difference: cpuCores is omitempty, both zeros are omitted, and
// -0 == 0. Non-finite resources have no JSON form and never pass
// config.JobConfig.Validate; they are skipped.
func FuzzSpecEqualMatchesJSON(f *testing.F) {
	// flip selects which single field of b differs from a (0: none).
	f.Add("j1", "tailer", "v1", "out", "/ckpt/$JOB", 0, 2, 7, 2.0, int64(2<<30), 4, "v1", 2.0, 4, uint8(0))
	f.Add("j1", "tailer", "v1", "out", "/ckpt/$JOB", 0, 2, 7, 2.0, int64(2<<30), 4, "v2", 2.0, 4, uint8(1))
	f.Add("", "", "", "", "", 0, 0, 0, 0.0, int64(0), -1, "", 0.0, 0, uint8(2))
	f.Add("a\"b\\c<d>&e", "\x00\x1f\b\f\n\r\t\x7f", "\u2028\u2029", "x", "caf\u00e9", -1, 1, -7, -0.0, int64(-1), 0, "\u2028\u2029", 0.0, 0, uint8(3))
	f.Add("j", "p", "v", "", "", 3, 8, 0, 1e-7, int64(1), 1, "v", 1e-7+1e-23, 1, uint8(4))
	f.Add("j", "p", "v", "", "", 3, 8, 0, 1e21, int64(1), 2, "v", 1e21, 3, uint8(5))
	f.Add("j", "p", "v", "", "", 3, 8, 0, 123456.789e-12, int64(1), 3, "V", 0.1+0.2, 3, uint8(6))
	f.Add("j", "p", "\xff", "", "", 3, 8, 0, 1.0, int64(1), 3, "\xfe", 1.0, 3, uint8(0))
	f.Fuzz(func(t *testing.T, job, pkg, version, out, dir string, index, threads, priority int, cpu float64, mem int64, partitions int,
		version2 string, cpu2 float64, partitions2 int, flip uint8) {
		for _, s := range []string{job, pkg, version, out, dir, version2} {
			if !utf8.ValidString(s) {
				t.Skip()
			}
		}
		for _, c := range []float64{cpu, cpu2} {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Skip()
			}
		}
		build := func(version string, cpu float64, partitions int) TaskSpec {
			spec := TaskSpec{
				JobSpec: &JobSpec{
					Job: job, TaskCount: threads, PackageName: pkg, PackageVersion: version,
					Threads: threads, Operator: config.Operator(pkg), InputCategory: job + "_in",
					OutputCategory: out, Priority: priority,
					Resources:   config.Resources{CPUCores: cpu, MemoryBytes: mem, DiskBytes: int64(priority), NetworkBps: mem >> 3},
					Enforcement: config.MemoryEnforcement(version),
				},
				Index: index, CheckpointDir: dir,
			}
			// partitions < 0: nil slice; 0: empty; else a range.
			if partitions >= 0 {
				spec.Partitions = make([]int, partitions%64)
				for i := range spec.Partitions {
					spec.Partitions[i] = index + i*threads
				}
			}
			return spec
		}
		a := build(version, cpu, partitions)
		b := build(version2, cpu2, partitions2)
		// One more single-field difference, so every field gets to be the
		// only one that differs, not just the three drawn twice.
		switch flip % 12 {
		case 1:
			b.Job += "x"
		case 2:
			b.Index++
		case 3:
			b.TaskCount++
		case 4:
			b.PackageName += "x"
		case 5:
			b.Threads++
		case 6:
			b.Operator += "x"
		case 7:
			b.InputCategory += "x"
		case 8:
			b.OutputCategory += "x"
		case 9:
			b.Resources.MemoryBytes++
		case 10:
			b.CheckpointDir += "x"
		case 11:
			b.Priority++
		}
		// The specs of one group build share their template: let half the
		// pairs whose templates are equal take Equal's pointer path.
		if flip >= 128 && *a.JobSpec == *b.JobSpec {
			b.JobSpec = a.JobSpec
		}
		got := a.Equal(&b)
		if got != b.Equal(&a) {
			t.Fatalf("Equal is not symmetric:\n a %+v\n b %+v", a, b)
		}
		marshal := func(s TaskSpec) []byte {
			if s.Partitions == nil {
				s.Partitions = []int{}
			}
			raw, err := json.Marshal(&s)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		ja, jb := marshal(a), marshal(b)
		if want := bytes.Equal(ja, jb); got != want {
			t.Fatalf("Equal = %v, JSON forms equal = %v:\n a %s\n b %s", got, want, ja, jb)
		}
	})
}

func TestAssignPartitionsEvenSplit(t *testing.T) {
	// 16 partitions, 4 tasks -> 4 each, contiguous.
	for i := 0; i < 4; i++ {
		got := AssignPartitions(16, 4, i)
		if len(got) != 4 || got[0] != i*4 {
			t.Fatalf("task %d got %v", i, got)
		}
	}
}

func TestAssignPartitionsRemainder(t *testing.T) {
	// 10 partitions, 3 tasks -> sizes 4,3,3.
	sizes := []int{4, 3, 3}
	var all [][]int
	for i := 0; i < 3; i++ {
		got := AssignPartitions(10, 3, i)
		if len(got) != sizes[i] {
			t.Fatalf("task %d got %d partitions, want %d", i, len(got), sizes[i])
		}
		all = append(all, got)
	}
	if err := ValidatePartitionAssignment(10, all); err != nil {
		t.Fatal(err)
	}
}

func TestAssignPartitionsInvalidArgs(t *testing.T) {
	if AssignPartitions(0, 3, 0) != nil ||
		AssignPartitions(10, 0, 0) != nil ||
		AssignPartitions(10, 3, -1) != nil ||
		AssignPartitions(10, 3, 3) != nil {
		t.Fatal("invalid args returned partitions")
	}
}

// Property: for any (total, taskCount) the assignment is disjoint,
// exhaustive, and balanced within one partition.
func TestAssignPartitionsProperty(t *testing.T) {
	f := func(total16, count8 uint8) bool {
		total := int(total16%200) + 1
		count := int(count8%32) + 1
		if count > total {
			count = total
		}
		perTask := make([][]int, count)
		minSize, maxSize := total, 0
		for i := 0; i < count; i++ {
			perTask[i] = AssignPartitions(total, count, i)
			if n := len(perTask[i]); n < minSize {
				minSize = n
			} else if n > maxSize {
				maxSize = n
			}
		}
		if err := ValidatePartitionAssignment(total, perTask); err != nil {
			return false
		}
		return maxSize-minSize <= 1 || maxSize == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValidatePartitionAssignmentErrors(t *testing.T) {
	if err := ValidatePartitionAssignment(4, [][]int{{0, 1}, {1, 2, 3}}); err == nil || !strings.Contains(err.Error(), "owned by both") {
		t.Fatalf("duplicate not detected: %v", err)
	}
	if err := ValidatePartitionAssignment(4, [][]int{{0, 1}, {2}}); err == nil || !strings.Contains(err.Error(), "unowned") {
		t.Fatalf("gap not detected: %v", err)
	}
	if err := ValidatePartitionAssignment(4, [][]int{{0, 9}}); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("range not checked: %v", err)
	}
}

func TestCheckpointLeasePreventsDuplicates(t *testing.T) {
	ckpt := NewCheckpointStore()
	offsets := make([]int64, 3)
	first, dup, next, other := Incarnation{Seq: 1}, Incarnation{Seq: 2}, Incarnation{Seq: 3}, Incarnation{Seq: 4, Index: 1}
	if err := ckpt.startJob("j", []int{0, 1}, first, offsets); err != nil {
		t.Fatal(err)
	}
	// Same owner re-acquires fine.
	if err := ckpt.startJob("j", []int{0, 1}, first, offsets); err != nil {
		t.Fatal(err)
	}
	// Different owner fails and is recorded — once, however many of its
	// partitions conflict — and takes nothing, not even the free partition
	// listed ahead of the conflict.
	if err := ckpt.startJob("j", []int{2, 0, 1}, dup, offsets); err == nil {
		t.Fatal("duplicate acquisition allowed")
	}
	if ckpt.Violations() != 1 {
		t.Fatalf("Violations = %d, want 1", ckpt.Violations())
	}
	if owner, ok := ckpt.Owner("j", 2); ok {
		t.Fatalf("refused start kept partition 2 for %q", owner)
	}
	// Stop by non-owner releases nothing (its offsets still persist).
	ckpt.stopJob("j", []int{0}, dup, []int64{7})
	if owner, ok := ckpt.Owner("j", 0); !ok || owner != "j#0@1" {
		t.Fatalf("owner = %q,%v", owner, ok)
	}
	ckpt.stopJob("j", []int{0, 1}, first, []int64{500, 300})
	if _, ok := ckpt.Owner("j", 0); ok {
		t.Fatal("lease survived stop")
	}
	if ckpt.LiveOwners("j") != 0 {
		t.Fatalf("LiveOwners = %d after stop", ckpt.LiveOwners("j"))
	}
	// The next start resumes from what Stop persisted, in the order asked.
	err := ckpt.startJob("j", []int{1, 0, 5}, next, offsets)
	if err != nil || !reflect.DeepEqual(offsets, []int64{300, 500, 0}) {
		t.Fatalf("restored offsets = %v, %v; want [300 500 0]", offsets, err)
	}
	// Names the dense record cannot hold are refused before anything is
	// taken, and are no duplication.
	if err := ckpt.startJob("j", []int{3, -1}, other, offsets); err == nil {
		t.Fatal("negative partition accepted")
	}
	if err := ckpt.startJob("j", []int{3}, Incarnation{}, offsets); err == nil {
		t.Fatal("zero owner accepted")
	}
	if _, ok := ckpt.Owner("j", 3); ok || ckpt.LiveOwners("j") != 3 || ckpt.Violations() != 1 {
		t.Fatalf("refused starts left a trace: %d live, %d violations", ckpt.LiveOwners("j"), ckpt.Violations())
	}
}

func TestCheckpointOffsetsAndState(t *testing.T) {
	ckpt := NewCheckpointStore()
	if ckpt.Offset("j", 0) != 0 {
		t.Fatal("fresh offset not zero")
	}
	// Offsets only: state sizes stay as they were.
	ckpt.checkpointJob("j", []int{0, 1}, []int64{500, 300}, -1)
	if ckpt.Offset("j", 0) != 500 || ckpt.Offset("j", 1) != 300 {
		t.Fatal("offset not persisted")
	}
	if got := ckpt.Consumed("j", 2); got != 800 {
		t.Fatalf("Consumed = %d, want 800", got)
	}
	if got := ckpt.Consumed("j", 1); got != 500 {
		t.Fatalf("Consumed over the first partition = %d, want 500", got)
	}
	if got := ckpt.Consumed("j", 64); got != 800 {
		t.Fatalf("Consumed beyond the record = %d, want 800", got)
	}
	if ckpt.JobState("j") != 0 {
		t.Fatalf("an offsets-only checkpoint wrote state: %d", ckpt.JobState("j"))
	}
	// State only: one size for every listed partition, offsets untouched.
	ckpt.checkpointJob("j", []int{0}, nil, 1000)
	ckpt.checkpointJob("j", []int{1, 2}, nil, 2000)
	if ckpt.JobState("j") != 5000 {
		t.Fatalf("JobState = %d", ckpt.JobState("j"))
	}
	if ckpt.StateSize("j", 1) != 2000 {
		t.Fatal("StateSize wrong")
	}
	// Both at once, and a state size of zero is a size.
	ckpt.checkpointJob("j", []int{1}, []int64{350}, 0)
	if ckpt.Offset("j", 0) != 500 || ckpt.Offset("j", 1) != 350 || ckpt.StateSize("j", 1) != 0 {
		t.Fatal("combined checkpoint wrong")
	}
	ckpt.DeleteJob("j")
	if ckpt.Offset("j", 0) != 0 || ckpt.JobState("j") != 0 || ckpt.Consumed("j", 2) != 0 {
		t.Fatal("DeleteJob incomplete")
	}
}

func TestForceReleaseTask(t *testing.T) {
	ckpt := NewCheckpointStore()
	offsets := make([]int64, 2)
	if err := ckpt.startJob("j", []int{0, 1}, Incarnation{Seq: 1, Index: 0}, offsets); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.startJob("j", []int{2}, Incarnation{Seq: 2, Index: 1}, offsets); err != nil {
		t.Fatal(err)
	}
	ckpt.ForceReleaseTask("j", Incarnation{Seq: 1, Index: 0})
	if ckpt.LiveOwners("j") != 1 {
		t.Fatalf("LiveOwners = %d, want 1", ckpt.LiveOwners("j"))
	}
	if owner, _ := ckpt.Owner("j", 2); owner != "j#1@2" {
		t.Fatalf("wrong lease dropped: partition 2 owned by %q", owner)
	}
}

func TestTaskStartStopLifecycle(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 4)
	task := NewTask(testSpec("j", 0, 1, 4), DefaultProfile(config.OpTailer), bus, ckpt)
	if task.Running() {
		t.Fatal("fresh task running")
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if !task.Running() {
		t.Fatal("started task not running")
	}
	if err := task.Start(); err != nil {
		t.Fatalf("idempotent start failed: %v", err)
	}
	task.Stop()
	task.Stop() // idempotent
	if task.Running() {
		t.Fatal("stopped task running")
	}
	if ckpt.LiveOwners("j") != 0 {
		t.Fatal("leases leaked after stop")
	}
}

func TestSecondInstanceCannotStart(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 4)
	prof := DefaultProfile(config.OpTailer)
	// t1 is task 1 of 2: it owns partitions 2 and 3, and has made progress.
	t1 := NewTask(testSpec("j", 1, 2, 4), prof, bus, ckpt)
	if err := t1.Start(); err != nil {
		t.Fatal(err)
	}
	bus.AppendEven("j_in", 100<<20, 1000)
	t1.Advance(time.Second)
	rival := [...]int64{ckpt.Offset("j", 2), ckpt.Offset("j", 3)}
	if rival[0] == 0 || rival[1] == 0 {
		t.Fatalf("t1 made no progress: offsets %v", rival)
	}
	// A second instance whose partitions overlap t1's (e.g., after a
	// botched shard move) must not start — and must take nothing: not the
	// free partitions 0 and 1 it lists ahead of the conflict either.
	t2dup := NewTask(&TaskSpec{
		JobSpec:    &JobSpec{Job: "j", TaskCount: 1, Threads: 1, Operator: config.OpTailer, InputCategory: "j_in"},
		Index:      99,
		Partitions: []int{0, 1, 2, 3},
	}, prof, bus, ckpt)
	if err := t2dup.Start(); err == nil {
		t.Fatal("overlapping task started")
	}
	if t2dup.Running() {
		t.Fatal("refused task reports running")
	}
	// One refused start is one violation, however many partitions conflict.
	if got := ckpt.Violations(); got != 1 {
		t.Fatalf("Violations = %d, want 1", got)
	}
	if got := ckpt.LiveOwners("j"); got != 2 {
		t.Fatalf("LiveOwners = %d, want 2 (only t1's)", got)
	}
	for p := 0; p < 4; p++ {
		owner, ok := ckpt.Owner("j", p)
		if want := p >= 2; ok != want || (ok && owner != t1.Instance()) {
			t.Fatalf("partition %d owned by %q (%v) after the refused start", p, owner, ok)
		}
	}
	// The refused starter, stopped anyway, must not touch the rival's
	// checkpoint, and t1 carries on from where it was.
	t2dup.Stop()
	if got := [...]int64{ckpt.Offset("j", 2), ckpt.Offset("j", 3)}; got != rival {
		t.Fatalf("rival offsets moved: %v, were %v", got, rival)
	}
	if st := t1.Advance(time.Second); st.ProcessedBytes == 0 {
		t.Fatal("t1 stopped processing after the refused start")
	}
}

func TestAdvanceDrainsBacklogAndReportsStats(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 4)
	prof := DefaultProfile(config.OpTailer) // P = 3 MB/s, 2 threads -> 6 MB/s
	task := NewTask(testSpec("j", 0, 1, 4), prof, bus, ckpt)
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	bus.AppendEven("j_in", 100<<20, 1000) // 100 MB backlog

	st := task.Advance(10 * time.Second)
	wantCap := int64(6 << 20 * 10) // 60 MB capacity
	if st.ProcessedBytes != wantCap {
		t.Fatalf("ProcessedBytes = %d, want %d", st.ProcessedBytes, wantCap)
	}
	if st.BacklogBytes != 100<<20-wantCap {
		t.Fatalf("BacklogBytes = %d", st.BacklogBytes)
	}
	// CPU at full throttle = min(threads, alloc) = 2 cores.
	if st.CPUCores < 1.9 || st.CPUCores > 2.1 {
		t.Fatalf("CPUCores = %v, want ~2", st.CPUCores)
	}
	if st.MemoryBytes <= prof.BaseMemoryBytes {
		t.Fatal("memory did not grow with throughput")
	}

	// Next interval drains the rest and goes idle.
	st = task.Advance(10 * time.Second)
	if st.BacklogBytes != 0 {
		t.Fatalf("BacklogBytes = %d, want 0", st.BacklogBytes)
	}
	st = task.Advance(10 * time.Second)
	if st.ProcessedBytes != 0 || st.CPUCores != 0 {
		t.Fatalf("idle task consumed: %+v", st)
	}
}

func TestAdvanceRespectsCPUAllocationCap(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 1)
	spec := testSpec("j", 0, 1, 1)
	spec.Threads = 4
	spec.Resources.CPUCores = 1 // cgroup caps at 1 core
	prof := DefaultProfile(config.OpTailer)
	task := NewTask(spec, prof, bus, ckpt)
	task.Start()
	bus.Append("j_in", 0, 100<<20, 0)
	st := task.Advance(time.Second)
	if want := int64(3 << 20); st.ProcessedBytes != want {
		t.Fatalf("ProcessedBytes = %d, want %d (1 core x 3MB/s)", st.ProcessedBytes, want)
	}
}

func TestAdvanceCheckpointsContinuously(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 2)
	task := NewTask(testSpec("j", 0, 1, 2), DefaultProfile(config.OpTailer), bus, ckpt)
	task.Start()
	bus.AppendEven("j_in", 10<<20, 0)
	task.Advance(10 * time.Second)
	if ckpt.Offset("j", 0) == 0 && ckpt.Offset("j", 1) == 0 {
		t.Fatal("no offsets checkpointed during Advance")
	}
}

func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 2)
	prof := DefaultProfile(config.OpTailer)
	t1 := NewTask(testSpec("j", 0, 1, 2), prof, bus, ckpt)
	t1.Start()
	bus.AppendEven("j_in", 12<<20, 0) // 12 MB
	t1.Advance(1 * time.Second)       // consumes 6 MB
	t1.Kill()                         // container died

	// Replacement instance starts and resumes from the checkpoint.
	t2 := NewTask(testSpec("j", 0, 1, 2), prof, bus, ckpt)
	if err := t2.Start(); err != nil {
		t.Fatalf("replacement could not start: %v", err)
	}
	st := t2.Advance(10 * time.Second)
	total := int64(12 << 20)
	if got := st.ProcessedBytes; got != total-6<<20 {
		t.Fatalf("replacement consumed %d, want %d (no loss, no duplication)", got, total-6<<20)
	}
}

func TestAdvanceOOMKillAndRecovery(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 1)
	spec := testSpec("j", 0, 1, 1)
	spec.Resources.MemoryBytes = 401 << 20 // barely above the 400 MB base
	prof := DefaultProfile(config.OpTailer)
	task := NewTask(spec, prof, bus, ckpt)
	task.Start()
	bus.Append("j_in", 0, 1<<30, 0)

	st := task.Advance(10 * time.Second)
	if !st.OOMKilled {
		t.Fatalf("no OOM at mem=%d limit=%d", st.MemoryBytes, spec.Resources.MemoryBytes)
	}
	if task.OOMCount() != 1 {
		t.Fatalf("OOMCount = %d", task.OOMCount())
	}
	// Restart interval: no processing.
	st = task.Advance(10 * time.Second)
	if st.ProcessedBytes != 0 {
		t.Fatal("processed during restart backoff")
	}
	if task.Restarts() != 1 {
		t.Fatalf("Restarts = %d", task.Restarts())
	}
	// Then it processes (and will OOM again until the scaler adds memory).
	st = task.Advance(10 * time.Second)
	if st.ProcessedBytes == 0 {
		t.Fatal("no processing after restart")
	}
}

func TestNoEnforcementNeverKills(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 1)
	spec := testSpec("j", 0, 1, 1)
	spec.Resources.MemoryBytes = 1 // absurdly low
	spec.Enforcement = config.EnforceNone
	task := NewTask(spec, DefaultProfile(config.OpTailer), bus, ckpt)
	task.Start()
	bus.Append("j_in", 0, 1<<30, 0)
	st := task.Advance(10 * time.Second)
	if st.OOMKilled {
		t.Fatal("unenforced task was killed")
	}
	if st.MemoryBytes <= 1 {
		t.Fatal("memory metric not reported")
	}
}

func TestOutputWrittenToOutputCategory(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 1)
	bus.CreateCategory("j_out", 2)
	spec := testSpec("j", 0, 1, 1)
	spec.Operator = config.OpTransform
	spec.OutputCategory = "j_out"
	prof := DefaultProfile(config.OpTransform) // ratio 1.0
	task := NewTask(spec, prof, bus, ckpt)
	task.Start()
	bus.Append("j_in", 0, 1<<20, 0)
	task.Advance(10 * time.Second)
	if got := bus.TotalWritten("j_out"); got != 1<<20 {
		t.Fatalf("output written = %d, want %d", got, 1<<20)
	}
}

func TestStatefulTaskPersistsState(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 2)
	spec := testSpec("j", 0, 1, 2)
	spec.Operator = config.OpAggregate
	task := NewTask(spec, DefaultProfile(config.OpAggregate), bus, ckpt)
	task.Start()
	bus.AppendEven("j_in", 100<<20, 0)
	task.Advance(10 * time.Second)
	if ckpt.JobState("j") == 0 {
		t.Fatal("stateful job persisted no state")
	}
}

func TestStoppedTaskDoesNotAdvance(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 1)
	task := NewTask(testSpec("j", 0, 1, 1), DefaultProfile(config.OpTailer), bus, ckpt)
	bus.Append("j_in", 0, 1<<20, 0)
	st := task.Advance(time.Second)
	if st.ProcessedBytes != 0 {
		t.Fatal("unstarted task processed data")
	}
	if st.BacklogBytes != 1<<20 {
		t.Fatalf("stopped task backlog = %d, want %d", st.BacklogBytes, 1<<20)
	}
}

func TestMaxRateUncappedCPU(t *testing.T) {
	spec := testSpec("j", 0, 1, 1)
	spec.Threads = 3
	spec.Resources.CPUCores = 0 // no cap
	task := NewTask(spec, DefaultProfile(config.OpTailer), nil, NewCheckpointStore())
	if got, want := task.maxRateLocked(), float64(3*3<<20); got != want {
		t.Fatalf("maxRateLocked = %v, want %v", got, want)
	}
}

// Property: conservation through a full drain — what the workload wrote is
// exactly what tasks consumed, regardless of task count and split.
func TestDrainConservationProperty(t *testing.T) {
	f := func(totalKB uint16, parts8, tasks8 uint8) bool {
		parts := int(parts8%8) + 1
		tasks := int(tasks8%4) + 1
		if tasks > parts {
			tasks = parts
		}
		bus := scribe.NewBus()
		bus.CreateCategory("c", parts)
		ckpt := NewCheckpointStore()
		total := int64(totalKB) << 10
		bus.AppendEven("c", total, 0)
		prof := DefaultProfile(config.OpTailer)
		var consumed int64
		for i := 0; i < tasks; i++ {
			spec := &TaskSpec{
				JobSpec: &JobSpec{
					Job: "j", TaskCount: tasks, Threads: 8, Operator: config.OpTailer, InputCategory: "c",
					Resources: config.Resources{CPUCores: 8, MemoryBytes: 64 << 30},
				},
				Index:      i,
				Partitions: AssignPartitions(parts, tasks, i),
			}
			task := NewTask(spec, prof, bus, ckpt)
			if err := task.Start(); err != nil {
				return false
			}
			for k := 0; k < 100; k++ {
				st := task.Advance(time.Second)
				consumed += st.ProcessedBytes
				if st.BacklogBytes == 0 {
					break
				}
			}
			task.Stop()
		}
		return consumed == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultProfilesSane(t *testing.T) {
	ops := []config.Operator{
		config.OpTailer, config.OpFilter, config.OpProject,
		config.OpTransform, config.OpAggregate, config.OpJoin,
		config.Operator("custom"),
	}
	for _, op := range ops {
		p := DefaultProfile(op)
		if p.PerThreadRate <= 0 || p.BaseMemoryBytes <= 0 {
			t.Errorf("%s: degenerate profile %+v", op, p)
		}
		if m := p.MemoryAt(1 << 20); m < p.BaseMemoryBytes {
			t.Errorf("%s: memory below base at load", op)
		}
	}
	if DefaultProfile(config.OpJoin).DiskAt(1<<20) == 0 {
		t.Error("join uses no disk")
	}
	if DefaultProfile(config.OpTailer).DiskAt(1<<20) != 0 {
		t.Error("tailer uses disk")
	}
}

func TestAdvanceReportsDiskAndNetwork(t *testing.T) {
	bus, ckpt := newWorld(t, "j_in", 1)
	bus.CreateCategory("j_out", 1)
	spec := testSpec("j", 0, 1, 1)
	spec.Operator = config.OpJoin
	spec.OutputCategory = "j_out"
	spec.Resources = config.Resources{CPUCores: 8, MemoryBytes: 64 << 30, DiskBytes: 1 << 40}
	prof := DefaultProfile(config.OpJoin)
	task := NewTask(spec, prof, bus, ckpt)
	task.Start()
	bus.Append("j_in", 0, 100<<20, 0)
	st := task.Advance(10 * time.Second)
	if st.DiskBytes == 0 {
		t.Fatal("join reported no disk usage")
	}
	if st.NetworkBps <= int64(st.Rate) {
		t.Fatalf("network %d must include output traffic beyond input rate %.0f", st.NetworkBps, st.Rate)
	}
}
