package statesyncer

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/config"
)

// orderingActuator records the interleaving of actuator calls and commit
// visibility, to pin down the complex-sync phase ordering.
type orderingActuator struct {
	mu         sync.Mutex
	events     []string
	observe    func() string // samples running-config state at each call
	failResume int
}

func (o *orderingActuator) record(ev string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.observe != nil {
		ev += "/" + o.observe()
	}
	o.events = append(o.events, ev)
}

func (o *orderingActuator) StopJobTasks(job string) error {
	o.record("stop")
	return nil
}

func (o *orderingActuator) RedistributeCheckpoints(job string, p, oldN, newN int) error {
	o.record("redistribute")
	return nil
}

func (o *orderingActuator) ResumeJob(job string) error {
	o.mu.Lock()
	fail := o.failResume > 0
	if fail {
		o.failResume--
	}
	o.mu.Unlock()
	if fail {
		return errors.New("injected resume failure")
	}
	o.record("resume")
	return nil
}

func TestComplexSyncPhaseOrdering(t *testing.T) {
	// The paper's invariant (§III-B): stop old tasks, redistribute
	// checkpoints, and ONLY THEN (after the new running config is
	// committed) start the new tasks. Resume must observe the committed
	// config; stop and redistribute must observe the old one.
	svc, _, _, clk := newWorld(t, Options{})
	_ = clk
	act := &orderingActuator{}
	syncer := New(svc.Store(), act, clk, Options{})
	act.observe = func() string {
		r, _, ok := svc.Store().RunningDoc("j1")
		if !ok {
			return "none"
		}
		if r.Config == nil {
			return "bad"
		}
		if r.Config.TaskCount == 20 {
			return "new"
		}
		return "old"
	}

	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)
	syncer.RunRound()

	want := []string{"stop/old", "redistribute/old", "resume/new"}
	if len(act.events) != len(want) {
		t.Fatalf("events = %v", act.events)
	}
	for i, ev := range want {
		if act.events[i] != ev {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, act.events[i], ev, act.events)
		}
	}
}

func TestResumeFailureRetriesWithoutRecommit(t *testing.T) {
	svc, _, _, clk := newWorld(t, Options{})
	act := &orderingActuator{failResume: 1}
	syncer := New(svc.Store(), act, clk, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)

	res := syncer.RunRound()
	// The commit landed (atomic point passed) but resume failed: the
	// round reports a failure and the next round retries.
	if len(res.Failed) != 1 {
		t.Fatalf("round = %+v", res)
	}
	if n := runningTaskCount(t, svc, "j1"); n != 20 {
		t.Fatalf("running taskCount = %d", n)
	}

	res = syncer.RunRound()
	// Versions now match, so the plan is a noop... which would leave the
	// job quiesced forever. The retry must still have resumed it.
	resumed := false
	for _, ev := range act.events {
		if ev == "resume" {
			resumed = true
		}
	}
	if !resumed {
		t.Fatalf("job never resumed after resume failure: %v (round %+v)", act.events, res)
	}
}
