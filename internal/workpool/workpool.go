// Package workpool is the control plane's persistent work-stealing pool:
// the State Syncer's round batches and the Task Service's group rebuilds
// both fan out on it.
package workpool

import "sync/atomic"

// Pool runs index batches on goroutines spawned once. The ad-hoc
// alternative — spawning goroutines per batch — allocates a closure and
// a stack per worker every batch, which at one syncer round per 30
// seconds and one snapshot refresh per churn tick across a large fleet
// is exactly the steady-state churn the million-task tier forbids. Here
// the helper goroutines park on a channel receive between batches;
// dispatching a batch is channel sends of empty structs, which allocate
// nothing.
//
// A batch runs fn(i) for every i in [0, n), indices stolen off a shared
// atomic counter. The caller's goroutine participates as a worker, so a
// pool with k helpers serves batches at parallelism up to k+1. Batches
// must be serialized by the owner (the syncer's round lock, the Task
// Service's regeneration lock); the start/done channel handoffs order
// the batch-field writes against the helpers' reads. There is no Close:
// helpers stay parked for the life of the process.
type Pool struct {
	next    atomic.Int64
	n       int64
	fn      func(int)
	helpers int
	start   chan struct{}
	done    chan struct{}
}

// New returns a pool with the given number of parked helper goroutines.
func New(helpers int) *Pool {
	p := &Pool{
		helpers: helpers,
		start:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := 0; i < helpers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for range p.start {
		p.steal()
		p.done <- struct{}{}
	}
}

func (p *Pool) steal() {
	for {
		i := p.next.Add(1) - 1
		if i >= p.n {
			return
		}
		p.fn(int(i))
	}
}

// Run executes fn(i) for every i in [0, n) at parallelism min(par,
// helpers+1), blocking until the batch completes.
func (p *Pool) Run(n, par int, fn func(int)) {
	helpers := par - 1
	if helpers > p.helpers {
		helpers = p.helpers
	}
	p.n = int64(n)
	p.fn = fn
	p.next.Store(0)
	for i := 0; i < helpers; i++ {
		p.start <- struct{}{}
	}
	p.steal()
	for i := 0; i < helpers; i++ {
		<-p.done
	}
	p.fn = nil
}
