package statesyncer

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobservice"
	"repro/internal/taskservice"
	"repro/internal/wire"
)

// FuzzInputBoundary holds the control plane to what its input boundary
// accepts: a job config that jobservice.Provision accepts, then one
// task-count or resource edit that UpdateLayer accepts, never makes a
// later stage panic or reject it. After each, one State Syncer round
// commits the job with no failure or quarantine and the running config
// equals the desired one; the spec feed's frame carries a
// config that decodes to that very config; and Task Service expansion
// yields TaskCount specs whose partitions are a valid assignment.
func FuzzInputBoundary(f *testing.F) {
	type seed struct {
		name, pkg, version, in, out, dir string
		tasks, threads, parts, maxTasks  int64
		cpu, slo                         float64
		mem, disk, net                   int64
		edit, layer                      uint8
		n                                int64
		eCPU                             float64
		eMem, eDisk                      int64
	}
	for _, s := range []seed{
		{"j", "tailer", "v1", "j_in", "", "", 4, 2, 16, 0, 0.5, 90, 1 << 30, 0, 0, 0, 2, 8, 0, 0, 0},
		{"j", "tailer", "v1", "j_in", "j_out", "/ckpt/$JOB/$TASK", 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 3, 0, 2, 1 << 40, 1},
		{"j", "p", "v", "in", "", "", 2, 1, 1 << 16, 0, math.Copysign(0, -1), 1e-320, math.MaxInt64, math.MaxInt64, math.MaxInt64, 0, 1, 7, 0, 0, 0},
		{"j", "p", "v", "in", "", "", 2, 1, math.MaxInt64, 0, 1, 0, 0, 0, 0, 0, 1, 7, 0, 0, 0}, // more partitions than a task service lays out
		{"j", "p", "v", "in", "", "", 3, math.MaxInt64, 3, 3, 5e-324, 4, 1<<53 + 1, 0, 0, 1, 2, 0, 5e-324, math.MaxInt64, 0},
		{"j", "p", "v", "in", "out", "", 1, 1, 8, 0, 2, 3, 0, 0, 0, 0, 0, math.MinInt64, 0, 0, 0},
		{"j", "p", "v", "in", "out", "", 1, 1, 8, 0, 1e15, 0, 0, 0, 0, 1, 3, 0, 4e15, 1, 1},
		{"j", "p", "v", "", "", "", 1, 1, 8, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}, // no input category
	} {
		f.Add(s.name, s.pkg, s.version, s.in, s.out, s.dir, s.tasks, s.threads, s.parts, s.maxTasks,
			s.cpu, s.slo, s.mem, s.disk, s.net, s.edit, s.layer, s.n, s.eCPU, s.eMem, s.eDisk)
	}
	f.Fuzz(func(t *testing.T, name, pkg, version, in, out, dir string, tasks, threads, parts, maxTasks int64,
		cpu, slo float64, mem, disk, net int64, edit, layer uint8, n int64, eCPU float64, eMem, eDisk int64) {
		cfg := &config.JobConfig{
			Name: name, Package: config.Package{Name: pkg, Version: version},
			TaskCount: int(tasks), ThreadsPerTask: int(threads),
			TaskResources: config.Resources{CPUCores: cpu, MemoryBytes: mem, DiskBytes: disk, NetworkBps: net},
			Operator:      config.OpTailer,
			Input:         config.Input{Category: in, Partitions: int(parts)},
			Output:        config.Output{Category: out},
			CheckpointDir: dir,
			MaxTaskCount:  int(maxTasks),
			SLOSeconds:    slo,
		}
		svc, syncer, _, _ := newWorld(t, Options{})
		store := svc.Store()
		if err := svc.Provision(cfg); err != nil {
			return // rejected at the boundary: nothing later sees it
		}
		commits := func(when string) {
			t.Helper()
			res := syncer.RunRound()
			if len(res.Failed) != 0 {
				t.Fatalf("%s: round failed %v", when, res.Failed)
			}
			if q, ok := store.Quarantined(name); ok {
				t.Fatalf("%s: quarantined: %s", when, q.Reason)
			}
			desired, version, err := svc.Desired(name)
			if err != nil {
				t.Fatalf("%s: accepted job has no desired config: %v", when, err)
			}
			m, rv, ok := store.RunningDoc(name)
			running := m.Config
			if !ok || rv != version {
				t.Fatalf("%s: running version %d (%v), desired %d", when, rv, ok, version)
			}
			if !reflect.DeepEqual(running, desired) {
				t.Fatalf("%s: running\n%+v\ndesired\n%+v", when, running, desired)
			}
		}
		commits("after Provision")

		l := config.Layers()[layer%4]
		var err error
		if edit%2 == 0 {
			err = svc.SetTaskCount(name, l, int(n))
		} else {
			err = svc.SetTaskResources(name, l, config.Resources{CPUCores: eCPU, MemoryBytes: eMem, DiskBytes: eDisk})
		}
		if err == nil {
			commits("after the edit")
		}

		running, _, _ := store.RunningEntry(name)
		frame, err := jobservice.NewSpecFeed(store).PollFeed(wire.FeedRequest{Subscriber: "fuzz"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		kind, body, _, err := wire.DecodeFrame(frame)
		if err != nil || kind != wire.FrameDelta {
			t.Fatalf("feed frame: kind 0x%02x, %v", kind, err)
		}
		delta, err := wire.DecodeDelta(body)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for i := 0; i < delta.Count; i++ {
			ent, err := delta.Entry()
			if err != nil {
				t.Fatal(err)
			}
			if ent.Drop || string(ent.Name) != name {
				t.Fatalf("feed entry %q (drop %v), want a commit of %q", ent.Name, ent.Drop, name)
			}
			got, err := wire.DecodeJobConfigBlob(ent.Doc)
			if err != nil || !reflect.DeepEqual(got, running) {
				t.Fatalf("feed entry decodes to\n%+v (%v)\nrunning\n%+v", got, err, running)
			}
			seen++
		}
		if seen == 0 {
			t.Fatal("the feed carries no commit of the job")
		}

		var tmpl engine.JobSpec
		specs := taskservice.SpecsForJob(running, &tmpl, nil)
		if len(specs) != running.TaskCount {
			t.Fatalf("%d specs for taskCount %d", len(specs), running.TaskCount)
		}
		assigned := make([][]int, len(specs))
		for i := range specs {
			assigned[i] = specs[i].Partitions
		}
		if err := engine.ValidatePartitionAssignment(running.Input.Partitions, assigned); err != nil {
			t.Fatal(err)
		}
	})
}
