package autoscaler

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// Alert is raised when the scaler needs an operator: untriaged problems
// and horizontal caps blocking a needed scale-up.
type Alert struct {
	Job    string
	Reason string
	At     time.Time
}

// The scaler's control constants: one value each in every deployment,
// experiment and benchmark, so none is an option.
const (
	// imbalanceThreshold on stddev/mean of per-task rates: above it a
	// lagging job's input is rebalanced rather than scaled (Algorithm 2,
	// line 4).
	imbalanceThreshold = 0.5
	// memMargin multiplies observed memory (and disk) peaks into
	// reservations (§V-B).
	memMargin = 1.3
	// memDownFraction: memory is reclaimed when the observed peak falls
	// below this fraction of the reservation (§V-B).
	memDownFraction = 0.5
	// verticalCapFraction of a container a single task may grow to before
	// the scaler goes horizontal: the paper's 1/5 (§V-E).
	verticalCapFraction = 0.2
)

// Options tune the scaler. Zero values take defaults chosen to match the
// paper's described behaviour.
type Options struct {
	// ScanInterval between decision passes (default 60 s).
	ScanInterval time.Duration
	// RecoverySeconds is t in equation (3): the budget for draining a
	// backlog once resources are added (default 600).
	RecoverySeconds float64
	// DownscaleAfter is how long a job must be symptom-free before the
	// scaler tries to reclaim resources (paper: "no OOM, no lag ... in a
	// day"; default 24 h — experiments shorten it).
	DownscaleAfter time.Duration
	// DownscalePeakWindow sizes downscales from the recent traffic peak,
	// not the instantaneous rate (default 30 min).
	DownscalePeakWindow time.Duration
	// DefaultP bootstraps the per-thread max stable rate estimate before
	// any runtime observation, standing in for the staging-period
	// profiling (§V-B; default 2 MB/s).
	DefaultP float64
	// MemFloorBytes is the minimum per-task reservation (default 256 MB).
	MemFloorBytes int64
	// ContainerCapacity is the Turbine container size the vertical cap is
	// computed against.
	ContainerCapacity config.Resources
	// OnAlert receives operator alerts. It is called from Scan, on the
	// goroutine running the scan, one alert at a time.
	OnAlert func(Alert)
	// HistoryHorizonHours is the Pattern Analyzer's x: a downscale must
	// have sustained traffic for the next x hours on each recorded past
	// day (default 2; §V-C leaves x configurable — set it to cover the
	// diurnal swing to suppress ebb-chasing entirely).
	HistoryHorizonHours float64
	// DisableVerticalScaling makes every CPU scale-up horizontal,
	// ignoring the vertical-first policy (§V-E). ONLY for ablation
	// experiments quantifying what vertical-first saves in churn.
	DisableVerticalScaling bool
	// DisableHistoryChecks turns off the preactive Pattern Analyzer's
	// history-based vetoes (outlier detection and the x-hour downscale
	// safety check). ONLY for ablation experiments: it reverts the scaler
	// to its purely proactive second generation.
	DisableHistoryChecks bool
}

func (o *Options) fillDefaults() {
	if o.ScanInterval <= 0 {
		o.ScanInterval = time.Minute
	}
	if o.RecoverySeconds <= 0 {
		o.RecoverySeconds = 600
	}
	if o.DownscaleAfter <= 0 {
		o.DownscaleAfter = 24 * time.Hour
	}
	if o.DownscalePeakWindow <= 0 {
		o.DownscalePeakWindow = 30 * time.Minute
	}
	if o.DefaultP <= 0 {
		o.DefaultP = 2 << 20
	}
	if o.MemFloorBytes <= 0 {
		o.MemFloorBytes = 256 << 20
	}
	if o.ContainerCapacity.IsZero() {
		o.ContainerCapacity = config.Resources{CPUCores: 40, MemoryBytes: 200 << 30}
	}
}

// jobState is the scaler's per-job memory between scans.
type jobState struct {
	p             float64   // estimated per-thread max stable rate
	lastSymptomAt time.Time // last lag/OOM (or first sighting)
	lastActionAt  time.Time
	// A pending downscale awaits validation: an SLO violation right
	// after it means P was overestimated (§V-C).
	downscalePending bool
	downscaleToN     int
}

// Scaler is the Auto Scaler. Decisions are written to the Scaler layer of
// the expected job configuration through the Job Service.
type Scaler struct {
	jobs    *jobservice.Service
	source  SignalSource
	pattern *PatternAnalyzer
	clock   simclock.Clock
	opts    Options

	rebalancer InputRebalancer
	authorizer Authorizer

	mu     sync.Mutex
	state  map[string]*jobState
	stats  Stats
	ticker simclock.Ticker
}

// New builds a Scaler. rebalancer and authorizer may be nil (no input
// rebalancing hook; no capacity pressure).
func New(jobs *jobservice.Service, source SignalSource, store *metrics.Store,
	clock simclock.Clock, rebalancer InputRebalancer, authorizer Authorizer,
	opts Options) *Scaler {
	opts.fillDefaults()
	if authorizer == nil {
		authorizer = allowAll{}
	}
	pattern := NewPatternAnalyzer(store, clock)
	if opts.HistoryHorizonHours > 0 {
		pattern.HorizonHours = opts.HistoryHorizonHours
	}
	return &Scaler{
		jobs:       jobs,
		source:     source,
		pattern:    pattern,
		clock:      clock,
		opts:       opts,
		rebalancer: rebalancer,
		authorizer: authorizer,
		state:      make(map[string]*jobState),
	}
}

// Start schedules periodic scans.
func (s *Scaler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ticker != nil {
		return
	}
	s.ticker = s.clock.TickEvery(s.opts.ScanInterval, func() { s.Scan() })
}

// Stop cancels periodic scans.
func (s *Scaler) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// Stats returns cumulative counters.
func (s *Scaler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// PEstimate returns the current per-thread rate estimate for a job.
func (s *Scaler) PEstimate(job string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.state[job]
	if !ok {
		return 0, false
	}
	return st.p, true
}

// Forget drops everything learned about a job — its rate estimate, its
// symptom, action and pending-downscale memory, and the Pattern Analyzer's
// cached history aggregates. The owner of the job table calls it once a
// job is gone, so a job later created under the same name starts from
// DefaultP like any new job.
func (s *Scaler) Forget(job string) {
	s.mu.Lock()
	delete(s.state, job)
	s.mu.Unlock()
	s.pattern.Forget(job)
}

// Scan runs one decision pass over every job and returns the actions
// taken. This is Algorithm 2 extended with the proactive estimators and
// the preactive pattern analyzer.
//
// The pass is sequential: the source hands every job's signals over in one
// batch, the clock is read once, and the jobs are decided in name order,
// so the returned actions are in that order too. Per decision the scan
// takes only uncontended locks — the state map's, for PEstimate, Forget
// and Stats callers, and the Pattern Analyzer's.
func (s *Scaler) Scan() []Action {
	jobs, sigs := s.source.Signals()
	now := s.clock.Now()
	var actions []Action
	for i, job := range jobs {
		if sigs[i] == nil {
			continue
		}
		if a := s.decide(job, sigs[i], now); a.Type != ActionNone {
			actions = append(actions, a)
		}
	}
	s.mu.Lock()
	s.stats.Scans++
	s.mu.Unlock()
	return actions
}

func (s *Scaler) decide(job string, sig *Signals, now time.Time) Action {
	s.mu.Lock()
	st, ok := s.state[job]
	if !ok {
		st = &jobState{p: s.opts.DefaultP, lastSymptomAt: now}
		s.state[job] = st
	}
	s.mu.Unlock()

	n := sig.TaskCount
	if n <= 0 {
		return Action{Job: job, Type: ActionNone}
	}
	kEff := effectiveThreads(sig)

	// Pattern analyzer, upward P adjustment: a saturated job's observed
	// per-thread throughput IS the max stable rate.
	if sig.BacklogBytes > 0 && sig.ProcessingRate > 0 {
		perThread := sig.ProcessingRate / (float64(n) * kEff)
		if perThread > st.p {
			s.withLock(func() { st.p = perThread })
		}
	}

	capacity := st.p * kEff * float64(n)
	slo := sig.SLOSeconds
	if slo <= 0 {
		slo = 90
	}
	timeLag := sig.TimeLagged(capacity)

	switch {
	case timeLag > slo:
		return s.handleLag(job, sig, st, timeLag, n, kEff, now)
	case sig.OOMs > 0:
		s.withLock(func() { st.lastSymptomAt = now })
		return s.handleOOM(job, sig, st, n, now)
	case diskOverReservation(sig):
		// Disk estimator (§V-B): joins spill their window to disk; when
		// the observed spill approaches the reservation, grow it before
		// the task fails a write. Disk has no kill path, so this is
		// always a soft signal.
		s.withLock(func() { st.lastSymptomAt = now })
		return s.handleDisk(job, sig, st, n, now)
	case softLimitExceeded(sig):
		// No kill happened (no enforcement), but ongoing usage exceeds
		// the pre-configured soft limit: a memory adjustment is
		// warranted before the host pays for it (§V-A).
		s.withLock(func() { st.lastSymptomAt = now })
		return s.handleOOM(job, sig, st, n, now)
	default:
		return s.handleHealthy(job, sig, st, n, kEff, now)
	}
}

// diskOverReservation reports whether a job's observed disk spill is
// within 20% of (or beyond) its per-task reservation.
func diskOverReservation(sig *Signals) bool {
	return sig.TaskResources.DiskBytes > 0 &&
		float64(sig.DiskPeakBytes) > 0.8*float64(sig.TaskResources.DiskBytes)
}

// handleDisk grows the per-task disk reservation from the observed peak.
func (s *Scaler) handleDisk(job string, sig *Signals, st *jobState, n int, now time.Time) Action {
	newDisk := MemoryEstimate(sig.DiskPeakBytes, memMargin)
	if newDisk <= sig.TaskResources.DiskBytes {
		return Action{Job: job, Type: ActionNone}
	}
	to := sig.TaskResources
	to.DiskBytes = newDisk
	delta := config.Resources{DiskBytes: (newDisk - sig.TaskResources.DiskBytes) * int64(n)}
	if !s.authorizer.AuthorizeScaleUp(job, sig.Priority, delta) {
		s.withLock(func() { s.stats.ScaleUpsDenied++ })
		return Action{Job: job, Type: ActionNone, Reason: "scale-up denied by capacity manager"}
	}
	if err := s.jobs.SetTaskResources(job, config.LayerScaler, to); err != nil {
		return Action{Job: job, Type: ActionNone, Reason: err.Error()}
	}
	s.withLock(func() { s.stats.VerticalDiskUps++; st.lastActionAt = now })
	return Action{Job: job, Type: ActionVerticalDisk, Reason: "disk spill near reservation", FromRes: sig.TaskResources, ToRes: to}
}

// softLimitExceeded reports whether an unenforced job's observed memory
// peak has crossed its soft limit.
func softLimitExceeded(sig *Signals) bool {
	return sig.Enforcement == config.EnforceNone &&
		sig.TaskResources.MemoryBytes > 0 &&
		sig.MemPeakBytes > sig.TaskResources.MemoryBytes
}

func effectiveThreads(sig *Signals) float64 {
	k := float64(sig.Threads)
	if k <= 0 {
		k = 1
	}
	if sig.TaskResources.CPUCores > 0 && sig.TaskResources.CPUCores < k {
		k = sig.TaskResources.CPUCores
	}
	return k
}

// handleLag is the lag branch of Algorithm 2 plus the proactive and
// preactive extensions.
func (s *Scaler) handleLag(job string, sig *Signals, st *jobState, timeLag float64, n int, kEff float64, now time.Time) Action {
	s.withLock(func() {
		st.lastSymptomAt = now
		// A downscale immediately followed by lag means the P estimate
		// was too high: adjust to a value between X/(n·k) and P (§V-C).
		if st.downscalePending {
			st.downscalePending = false
			floor := sig.InputRate / (float64(max(n, 1)) * kEff)
			if floor < st.p {
				st.p = (floor + st.p) / 2
				s.stats.PAdjustments++
			}
		}
	})

	// Imbalanced input: rebalance rather than scale (Algorithm 2 line 4).
	if n > 1 && sig.ImbalanceRatio() > imbalanceThreshold {
		if s.rebalancer != nil {
			if err := s.rebalancer.RebalanceInput(job); err == nil {
				s.withLock(func() { s.stats.Rebalances++ })
				return Action{Job: job, Type: ActionRebalance, Reason: "imbalanced input"}
			}
		}
	}

	// Resource estimate (equation 3): what does recovery need?
	perTaskNeeded := (sig.InputRate + float64(sig.BacklogBytes)/s.opts.RecoverySeconds) / float64(n)
	coresNeeded := CoresForPerTaskRate(perTaskNeeded, st.p)
	vCapCores := verticalCapFraction * s.opts.ContainerCapacity.CPUCores
	curCores := sig.TaskResources.CPUCores

	// Vertical first (§V-E): grow the per-task CPU allocation while it
	// stays under both the thread count and the 1/5-container cap.
	if !s.opts.DisableVerticalScaling && curCores > 0 && coresNeeded > curCores && coresNeeded <= math.Min(float64(sig.Threads), vCapCores) {
		to := sig.TaskResources
		to.CPUCores = roundCores(coresNeeded)
		delta := config.Resources{CPUCores: (to.CPUCores - curCores) * float64(n)}
		if !s.authorizer.AuthorizeScaleUp(job, sig.Priority, delta) {
			s.withLock(func() { s.stats.ScaleUpsDenied++ })
			return Action{Job: job, Type: ActionNone, Reason: "scale-up denied by capacity manager"}
		}
		if err := s.jobs.SetTaskResources(job, config.LayerScaler, to); err != nil {
			return Action{Job: job, Type: ActionNone, Reason: err.Error()}
		}
		s.withLock(func() { s.stats.VerticalCPUUps++; st.lastActionAt = now })
		return Action{Job: job, Type: ActionVerticalCPU, Reason: fmt.Sprintf("lag %.0fs", timeLag), FromRes: sig.TaskResources, ToRes: to}
	}

	// Horizontal: tasks needed at full vertical allocation (equation 3).
	kFull := math.Min(float64(sig.Threads), vCapCores)
	if kFull <= 0 {
		kFull = float64(sig.Threads)
	}
	uncapped := TasksForRecovery(sig.InputRate, sig.BacklogBytes, s.opts.RecoverySeconds, st.p, kFull)
	nReq := clampTasks(uncapped, sig)

	if nReq > n {
		perTask := sig.TaskResources
		delta := perTask.Scale(float64(nReq - n))
		if !s.authorizer.AuthorizeScaleUp(job, sig.Priority, delta) {
			s.withLock(func() { s.stats.ScaleUpsDenied++ })
			return Action{Job: job, Type: ActionNone, Reason: "scale-up denied by capacity manager"}
		}
		if err := s.jobs.SetTaskCount(job, config.LayerScaler, nReq); err != nil {
			return Action{Job: job, Type: ActionNone, Reason: err.Error()}
		}
		s.correlatedMemoryAdjust(job, sig, n, nReq)
		s.withLock(func() { s.stats.HorizontalUps++; st.lastActionAt = now })
		if uncapped > nReq {
			s.alert(job, fmt.Sprintf("horizontal cap reached: need %d tasks, capped at %d", uncapped, nReq), now)
		}
		return Action{Job: job, Type: ActionHorizontalUp, Reason: fmt.Sprintf("lag %.0fs", timeLag), FromTasks: n, ToTasks: nReq}
	}

	if uncapped > n {
		// The estimate says more tasks are needed but the horizontal cap
		// (or partition count) blocks the scale-up: this is a capped job,
		// not an untriaged problem — alert the oncall to lift the cap
		// (§VI-B1's manual intervention).
		s.alert(job, fmt.Sprintf("horizontal cap reached: need %d tasks, capped at %d", uncapped, nReq), now)
		return Action{Job: job, Type: ActionNone, Reason: "blocked by horizontal cap"}
	}

	// Lag persists but the job has enough resources per the estimates, no
	// imbalance, no OOM: an untriaged problem. Scaling would amplify it
	// (§V-D); alert the operator instead.
	s.withLock(func() { s.stats.UntriagedAlerts++ })
	s.alert(job, fmt.Sprintf("untriaged: lag %.0fs with sufficient resources (capacity %.1f MB/s, input %.1f MB/s)", timeLag, st.p*kFull*float64(n)/(1<<20), sig.InputRate/(1<<20)), now)
	return Action{Job: job, Type: ActionUntriagedAlert, Reason: "lag with sufficient resources"}
}

// handleOOM grows memory vertically until the cap, then goes horizontal.
func (s *Scaler) handleOOM(job string, sig *Signals, st *jobState, n int, now time.Time) Action {
	peak := sig.MemPeakBytes
	if peak < sig.TaskResources.MemoryBytes {
		peak = sig.TaskResources.MemoryBytes
	}
	newMem := MemoryEstimate(peak, memMargin)
	vCapMem := int64(verticalCapFraction * float64(s.opts.ContainerCapacity.MemoryBytes))

	if newMem <= vCapMem {
		to := sig.TaskResources
		to.MemoryBytes = newMem
		delta := config.Resources{MemoryBytes: (newMem - sig.TaskResources.MemoryBytes) * int64(n)}
		if !s.authorizer.AuthorizeScaleUp(job, sig.Priority, delta) {
			s.withLock(func() { s.stats.ScaleUpsDenied++ })
			return Action{Job: job, Type: ActionNone, Reason: "scale-up denied by capacity manager"}
		}
		if err := s.jobs.SetTaskResources(job, config.LayerScaler, to); err != nil {
			return Action{Job: job, Type: ActionNone, Reason: err.Error()}
		}
		s.withLock(func() { s.stats.VerticalMemoryUps++; st.lastActionAt = now })
		return Action{Job: job, Type: ActionVerticalMemory, Reason: fmt.Sprintf("%d OOMs", sig.OOMs), FromRes: sig.TaskResources, ToRes: to}
	}

	// Memory is at the vertical cap: split the input across more tasks so
	// per-task memory (∝ per-task rate) drops.
	grow := float64(newMem) / float64(max(sig.TaskResources.MemoryBytes, 1))
	nReq := clampTasks(int(math.Ceil(float64(n)*grow)), sig)
	if nReq <= n {
		s.alert(job, "OOM at vertical memory cap and horizontal cap", now)
		return Action{Job: job, Type: ActionUntriagedAlert, Reason: "OOM at caps"}
	}
	delta := sig.TaskResources.Scale(float64(nReq - n))
	if !s.authorizer.AuthorizeScaleUp(job, sig.Priority, delta) {
		s.withLock(func() { s.stats.ScaleUpsDenied++ })
		return Action{Job: job, Type: ActionNone, Reason: "scale-up denied by capacity manager"}
	}
	if err := s.jobs.SetTaskCount(job, config.LayerScaler, nReq); err != nil {
		return Action{Job: job, Type: ActionNone, Reason: err.Error()}
	}
	s.withLock(func() { s.stats.HorizontalUps++; st.lastActionAt = now })
	return Action{Job: job, Type: ActionHorizontalUp, Reason: "OOM at vertical cap", FromTasks: n, ToTasks: nReq}
}

// handleHealthy validates pending downscales and reclaims resources after
// a long symptom-free period, subject to the plan generator's veto and the
// pattern analyzer's history checks.
func (s *Scaler) handleHealthy(job string, sig *Signals, st *jobState, n int, kEff float64, now time.Time) Action {
	s.mu.Lock()
	// A pending downscale survived a scan without SLO violation: the P
	// estimate is validated.
	st.downscalePending = false
	quietFor := now.Sub(st.lastSymptomAt)
	sinceAction := now.Sub(st.lastActionAt)
	s.mu.Unlock()
	if quietFor < s.opts.DownscaleAfter || sinceAction < s.opts.DownscaleAfter {
		return Action{Job: job, Type: ActionNone}
	}

	// Size from the recent traffic peak, never the instantaneous rate.
	peakX, ok := s.pattern.RecentPeak(job, s.opts.DownscalePeakWindow, now)
	if !ok {
		peakX = sig.InputRate
	}
	nPrime := TasksForRate(peakX*1.1, st.p, kEff)

	if nPrime > n {
		// No lag yet more tasks "needed": P must be smaller than the real
		// max throughput. Adjust P to observed task throughput and skip
		// (§V-C).
		if sig.ProcessingRate > 0 {
			s.withLock(func() {
				st.p = sig.ProcessingRate / (float64(n) * kEff)
				s.stats.PAdjustments++
			})
		}
		return Action{Job: job, Type: ActionNone, Reason: "P adjusted upward"}
	}

	if nPrime < n {
		newCapacity := st.p * kEff * float64(nPrime)
		// Plan generator veto: never downscale below live traffic.
		if newCapacity < sig.InputRate*1.1 {
			s.withLock(func() { s.stats.DownscalesVetoed++ })
			return Action{Job: job, Type: ActionNone, Reason: "downscale vetoed: would not sustain current input"}
		}
		// Pattern analyzer: outliers disable history-based decisions;
		// history must show nPrime would have sustained the next x hours.
		if !s.opts.DisableHistoryChecks {
			if s.pattern.Outlier(job) {
				s.withLock(func() { s.stats.DownscalesSkippedHist++ })
				return Action{Job: job, Type: ActionNone, Reason: "downscale skipped: traffic is an outlier vs 14-day history"}
			}
			if !s.pattern.DownscaleSafe(job, newCapacity) {
				s.withLock(func() { s.stats.DownscalesSkippedHist++ })
				return Action{Job: job, Type: ActionNone, Reason: "downscale skipped: history shows higher load ahead"}
			}
		}
		if err := s.jobs.SetTaskCount(job, config.LayerScaler, nPrime); err != nil {
			return Action{Job: job, Type: ActionNone, Reason: err.Error()}
		}
		s.withLock(func() {
			s.stats.HorizontalDowns++
			st.lastActionAt = now
			st.downscalePending = true
			st.downscaleToN = nPrime
		})
		return Action{Job: job, Type: ActionHorizontalDown, FromTasks: n, ToTasks: nPrime, Reason: "symptom-free, traffic fits fewer tasks"}
	}

	// Memory reclaim: reservation far above the observed peak.
	reserved := sig.TaskResources.MemoryBytes
	if reserved > s.opts.MemFloorBytes && sig.MemPeakBytes > 0 &&
		float64(sig.MemPeakBytes) < memDownFraction*float64(reserved) {
		newMem := MemoryEstimate(sig.MemPeakBytes, memMargin)
		if newMem < s.opts.MemFloorBytes {
			newMem = s.opts.MemFloorBytes
		}
		if newMem < reserved {
			to := sig.TaskResources
			to.MemoryBytes = newMem
			if err := s.jobs.SetTaskResources(job, config.LayerScaler, to); err != nil {
				return Action{Job: job, Type: ActionNone, Reason: err.Error()}
			}
			s.withLock(func() { s.stats.VerticalMemoryDowns++; st.lastActionAt = now })
			return Action{Job: job, Type: ActionVerticalMemoryDown, FromRes: sig.TaskResources, ToRes: to, Reason: "memory reservation far above peak"}
		}
	}
	return Action{Job: job, Type: ActionNone}
}

// correlatedMemoryAdjust implements the plan generator's correlated
// adjustment (§V-B item 3): when a stateful job gains tasks, the state —
// and hence memory — per task shrinks, so the reservation can shrink too.
func (s *Scaler) correlatedMemoryAdjust(job string, sig *Signals, oldN, newN int) {
	if !sig.Stateful || newN <= oldN || sig.TaskResources.MemoryBytes <= 0 {
		return
	}
	shrunk := int64(float64(sig.TaskResources.MemoryBytes) * float64(oldN) / float64(newN) * memMargin)
	if shrunk < s.opts.MemFloorBytes {
		shrunk = s.opts.MemFloorBytes
	}
	if shrunk < sig.TaskResources.MemoryBytes {
		to := sig.TaskResources
		to.MemoryBytes = shrunk
		_ = s.jobs.SetTaskResources(job, config.LayerScaler, to)
	}
}

func (s *Scaler) alert(job, reason string, at time.Time) {
	if s.opts.OnAlert != nil {
		s.opts.OnAlert(Alert{Job: job, Reason: reason, At: at})
	}
}

func (s *Scaler) withLock(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

// clampTasks bounds a horizontal target by the job's cap and its input
// partition count (a task must own at least one partition).
func clampTasks(n int, sig *Signals) int {
	if sig.MaxTaskCount > 0 && n > sig.MaxTaskCount {
		n = sig.MaxTaskCount
	}
	if sig.Partitions > 0 && n > sig.Partitions {
		n = sig.Partitions
	}
	if n < 1 {
		n = 1
	}
	return n
}

// roundCores rounds a fractional core requirement up to the next half
// core, the allocation granularity.
func roundCores(c float64) float64 {
	return math.Ceil(c*2) / 2
}
