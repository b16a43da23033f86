// Package autoscaler implements Turbine's Auto Scaler (paper §V): the
// resource-management service that adjusts allocation in multiple
// dimensions at task, job, and cluster level.
//
// The scaler is structured exactly as the paper's three generations:
//
//   - Reactive (§V-A): Symptom Detectors watch lag (equation 1), input
//     imbalance (stddev of per-task rates), and OOMs, and Diagnosis
//     Resolvers map symptoms to adjustments (Algorithm 2).
//   - Proactive (§V-B): Resource Estimators compute, per resource
//     dimension, what the job actually needs — CPU from the per-thread max
//     stable rate P (equations 2 and 3), memory from observed peaks per
//     operator class — and a Plan Generator synthesizes a final plan that
//     (1) never downscales a healthy job into unhealthiness, (2) refuses
//     to "fix" untriaged problems by scaling, and (3) adjusts correlated
//     resources together.
//   - Preactive (§V-C): a Pattern Analyzer adjusts the P estimate from
//     observed throughput and consults 14 days of per-minute workload
//     history before allowing a downscale, so the scaler does not chase
//     diurnal ebbs and flows.
//
// Scaling actions are written through the Job Service into the Scaler
// layer of the expected job configuration (§III-A), never directly into
// the running state: the State Syncer owns execution.
package autoscaler

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/metrics"
)

// Signals are the per-job observations the scaler works from. A
// SignalSource (the cluster's job monitor) assembles them from task-level
// metrics; the scaler sees nothing else about the job's internals.
type Signals struct {
	// InputRate is the rate at which new data arrives, bytes/second.
	InputRate float64
	// ProcessingRate is the rate the job is actually ingesting,
	// bytes/second (the denominator of equation 1).
	ProcessingRate float64
	// BacklogBytes is total_bytes_lagged: bytes available for reading not
	// yet ingested (the numerator of equation 1).
	BacklogBytes int64
	// TaskRates are per-task processing rates; their standard deviation
	// measures input imbalance (§V-A).
	TaskRates []float64
	// OOMs observed since the last scan.
	OOMs int
	// MemPeakBytes is the highest per-task memory observed recently.
	MemPeakBytes int64
	// DiskPeakBytes is the highest per-task disk usage observed recently
	// (joins spill their window to disk, §V-B).
	DiskPeakBytes int64
	// TaskCount and Threads reflect the currently running configuration.
	TaskCount int
	Threads   int
	// TaskResources is the current per-task allocation.
	TaskResources config.Resources
	// Stateful reports whether the job maintains state beyond checkpoints.
	Stateful bool
	// Enforcement is the job's memory-enforcement mode: it decides how
	// OOM pressure is detected (§V-A). Unenforced jobs never OOM-kill;
	// the scaler instead compares their ongoing usage to the soft limit.
	Enforcement config.MemoryEnforcement
	// Priority is the job's business priority (capacity decisions).
	Priority int
	// MaxTaskCount is the job's horizontal cap (0 = unlimited).
	MaxTaskCount int
	// Partitions bounds parallelism: a task needs at least one partition.
	Partitions int
	// SLOSeconds is the job's lag budget.
	SLOSeconds float64
}

// TimeLagged computes equation (1): total_bytes_lagged / processing_rate —
// how far behind real time the job is, in seconds. When the job is
// processing nothing, the given fallback capacity (bytes/sec) is used; if
// that is also zero, an hour is reported per backlog byte presence (the
// job is effectively stalled).
func (s Signals) TimeLagged(fallbackRate float64) float64 {
	if s.BacklogBytes <= 0 {
		return 0
	}
	rate := s.ProcessingRate
	if rate <= 0 {
		rate = fallbackRate
	}
	if rate <= 0 {
		return 3600
	}
	return float64(s.BacklogBytes) / rate
}

// ImbalanceRatio is the §V-A input-imbalance symptom: the standard
// deviation of the per-task rates over their mean. It returns 0 when
// fewer than two task rates are known or the mean is not positive, so
// callers compare it directly against the imbalance threshold.
func (s Signals) ImbalanceRatio() float64 {
	if len(s.TaskRates) < 2 {
		return 0
	}
	mean := metrics.Mean(s.TaskRates)
	if mean <= 0 {
		return 0
	}
	return metrics.StdDev(s.TaskRates) / mean
}

// SignalSource provides job observations to the scaler.
type SignalSource interface {
	// Signals lists the jobs to consider, sorted, and the latest
	// observations of each: sigs[i] belongs to jobs[i], nil while the job
	// has none. The scaler only reads the pointees; the source never writes
	// one it has handed out.
	Signals() (jobs []string, sigs []*Signals)
}

// InputRebalancer is the hook through which the scaler's "rebalance input
// traffic amongst tasks" action (Algorithm 2 line 4) takes effect.
type InputRebalancer interface {
	RebalanceInput(job string) error
}

// Authorizer lets the Capacity Manager gate scale-ups when the cluster is
// under pressure (§V-F): the scaler asks before growing a job's footprint.
type Authorizer interface {
	// AuthorizeScaleUp reports whether the job may grow by delta.
	AuthorizeScaleUp(job string, priority int, delta config.Resources) bool
}

// allowAll authorizes everything (no capacity pressure).
type allowAll struct{}

func (allowAll) AuthorizeScaleUp(string, int, config.Resources) bool { return true }

// ActionType enumerates the adjustments the scaler can decide on.
type ActionType int

// Action types, in rough order of escalation.
const (
	ActionNone ActionType = iota
	ActionRebalance
	ActionVerticalCPU
	ActionVerticalMemory
	ActionHorizontalUp
	ActionHorizontalDown
	ActionVerticalMemoryDown
	ActionVerticalDisk
	ActionUntriagedAlert
)

func (a ActionType) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionRebalance:
		return "rebalance"
	case ActionVerticalCPU:
		return "vertical-cpu"
	case ActionVerticalMemory:
		return "vertical-memory"
	case ActionHorizontalUp:
		return "horizontal-up"
	case ActionHorizontalDown:
		return "horizontal-down"
	case ActionVerticalMemoryDown:
		return "vertical-memory-down"
	case ActionVerticalDisk:
		return "vertical-disk"
	case ActionUntriagedAlert:
		return "untriaged-alert"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Action is one decision taken for one job in one scan.
type Action struct {
	Job    string
	Type   ActionType
	Reason string
	// FromTasks/ToTasks for horizontal actions.
	FromTasks, ToTasks int
	// FromRes/ToRes for vertical actions.
	FromRes, ToRes config.Resources
}

// Stats are cumulative scaler counters, one field per decision path so
// experiments can attribute behaviour.
type Stats struct {
	Scans                 int
	Rebalances            int
	VerticalCPUUps        int
	VerticalMemoryUps     int
	HorizontalUps         int
	HorizontalDowns       int
	VerticalMemoryDowns   int
	VerticalDiskUps       int
	UntriagedAlerts       int
	DownscalesVetoed      int // plan generator: would break a healthy job
	DownscalesSkippedHist int // pattern analyzer: history says no
	PAdjustments          int // pattern analyzer: P corrected instead of acting
	ScaleUpsDenied        int // capacity manager refused
}
