package main

import (
	"math/rand"
	"time"
)

// simStep is how much simulated time one sim_day op advances. Hours would
// be the natural op, but a run fits only about 25 of them: too few for a
// 90th percentile, and too long for the host reference slices between
// ops to follow the host.
const (
	simStep      = 10 * time.Minute
	stepsPerHour = int(time.Hour / simStep)
)

// simRun drives the simulated cluster ten simulated minutes per op,
// through scripted days: new-job submit, a 10× spike on a tenth of the
// jobs, a host kill and restore, and a fleet-wide release. It is the only
// workload where the auto scaler, the metric store, the capacity manager,
// the engine, the Scribe bus and the cluster's monitor loop do most of
// the work, and the only one that yields simulated-time figures.
type simRun struct {
	s     *simCluster
	rng   *rand.Rand
	res   *result
	meter *meter
	step  int

	deadHost  string // killed and not yet restored
	restoreAt time.Time

	scheduleS, failoverS                       []float64 // simulated seconds
	opMs, opAllocs, actMs, smMs, srcMs, scanMs []float64 // per op
}

func newSimRun(s *simCluster, seed int64) *simRun {
	return &simRun{s: s, rng: rand.New(rand.NewSource(seed)), res: &result{}, meter: newMeter()}
}

func (r *simRun) op(warmup, traced bool) {
	s, tr, res := r.s, r.s.tr, r.res
	// Events fire in the first step of hours 4, 8, 12 and 16 of a 24-hour
	// day, at a drawn second of the step, so their phase against the
	// syncer's 30 s rounds and the managers' 60 s fetches — which sets the
	// simulated latencies — varies with the seed. The draws happen every
	// step, so the inputs depend on the seed and the step alone.
	slot := r.step % (s.size.DayHours * stepsPerHour)
	event := 0
	if slot%s.size.DayHours == 0 {
		event = slot / s.size.DayHours
	}
	r.step++
	pick := r.rng.Intn(1 << 16)
	offset := time.Duration(r.rng.Intn(int(simStep/time.Second))) * time.Second

	tr.beginOp(traced)
	act0, sm0, src0, scan0 := s.seamNs()
	begin := s.now()
	r.meter.start()
	root := tr.beginStage("sim.step")
	if r.deadHost != "" && !begin.Before(r.restoreAt) {
		if err := s.restoreHost(r.deadHost); err != nil {
			res.fail("restore host: %v", err)
		}
		r.deadHost = ""
	}
	if event >= 1 && event <= 4 {
		s.run(offset)
	}
	switch event {
	case 1:
		first := len(s.names)
		for i := 0; i < max(1, s.size.Jobs/50); i++ {
			if err := s.submit(); err != nil {
				res.fail("submit: %v", err)
			}
		}
		d, err := s.runUntil(10*time.Minute, func() bool {
			for _, name := range s.names[first:] {
				if !s.jobRunning(name) {
					return false
				}
			}
			return true
		})
		if err != nil {
			res.fail("new jobs not running after 10 simulated minutes")
		}
		r.scheduleS = append(r.scheduleS, d.Seconds())
	case 2:
		if err := s.spike(pick); err != nil {
			res.fail("spike: %v", err)
		}
	case 3:
		host, lost, err := s.killHost(pick)
		if err != nil {
			res.fail("kill host: %v", err)
			break
		}
		d, err := s.runUntil(10*time.Minute, func() bool { return s.recovered(lost) })
		if err != nil {
			res.fail("tasks of %s not running again after 10 simulated minutes", host)
		}
		r.failoverS = append(r.failoverS, d.Seconds())
		r.deadHost, r.restoreAt = host, s.now().Add(20*time.Minute)
	case 4:
		if err := s.releaseAll(); err != nil {
			res.fail("release: %v", err)
		}
	}
	if rest := simStep - s.now().Sub(begin); rest > 0 {
		s.run(rest)
	}
	root()
	d, cpu, mallocs := r.meter.stop()
	tr.beginOp(false)
	act1, sm1, src1, scan1 := s.seamNs()
	simMinutes := int(s.now().Sub(begin) / time.Minute)

	if err := s.mirrorEqual(); err != nil {
		res.fail("step %d: %v", r.step, err)
	}
	if v := s.violations(); v != 0 {
		res.fail("step %d: %d checkpoint-lease violations", r.step, v)
	}
	if warmup {
		return
	}
	res.attempted += 3
	res.record(traced, d, cpu, mallocs, len(s.names)*simMinutes)
	r.opMs = append(r.opMs, float64(d)/1e6)
	r.opAllocs = append(r.opAllocs, float64(mallocs))
	r.actMs = append(r.actMs, float64(act1-act0)/1e6)
	r.smMs = append(r.smMs, float64(sm1-sm0)/1e6)
	r.srcMs = append(r.srcMs, float64(src1-src0)/1e6)
	r.scanMs = append(r.scanMs, float64(scan1-scan0)/1e6)
}

// begin has nothing to restart: sim_day has no warm-up ops, buildSim
// starts the counters after its own warm-up hour.
func (r *simRun) begin() {}

// hourly sums per-op values into per-simulated-hour values.
func hourly(perOp []float64) []float64 {
	var out []float64
	for i := 0; i+stepsPerHour <= len(perOp); i += stepsPerHour {
		out = append(out, sum(perOp[i:i+stepsPerHour]))
	}
	return out
}

func (r *simRun) finish() *result {
	s, res := r.s, r.res
	res.layer = s.counters()
	s.settle()
	res.attempted++
	if err := s.converged(); err != nil {
		res.fail("final check: %v", err)
	}
	res.layer["autoscaler.scan_ms"] = median(hourly(r.scanMs))
	res.layer["sim.actuator_ms"] = median(hourly(r.actMs))
	res.layer["sim.sm_client_ms"] = median(hourly(r.smMs))
	res.layer["sim.tasksource_ms"] = median(hourly(r.srcMs))
	res.layer["sim.wall_ms_per_sim_hour_p50"] = median(hourly(r.opMs))
	res.layer["sim.wall_ms_per_sim_hour_max"] = maxOf(hourly(r.opMs))
	res.layer["sim.allocs_per_sim_hour"] = median(hourly(r.opAllocs))
	res.layer["sim.schedule_simsec"] = median(r.scheduleS)
	res.layer["sim.failover_simsec"] = median(r.failoverS)
	res.layer["setup.provision_s"] = s.setupSeconds
	res.layer["trace.unattributed_ms"] = median(s.tr.selfTimes()["sim.step"])
	res.layer["trace.overhead_pct"] = res.overheadPct()
	return res
}
