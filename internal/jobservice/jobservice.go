// Package jobservice is Turbine's Job Service (paper §III): the single
// write path into the Job Store that guarantees job changes are committed
// atomically and with read-modify-write consistency.
//
// Every mutation follows the same protocol: read the expected stack and
// its version, apply the caller's change to one layer, validate the
// *merged* result (an update that would leave the job unrunnable is
// rejected before it is written), then compare-and-set against the version
// the decision was based on. Concurrent writers — the Provision Service,
// the Auto Scaler, multiple oncalls — are serialized by CAS retry, never
// by blocking, and can stay mutually oblivious because each owns its own
// layer of the hierarchy (§III-A).
package jobservice

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/wire"
)

// maxCASRetries bounds the optimistic-concurrency retry loop. Contention
// on a single job is at most a handful of actors, so a small bound
// suffices; exceeding it indicates a livelock bug and is surfaced.
const maxCASRetries = 16

// Service wraps a job store with validated, consistent update operations.
type Service struct {
	store *jobstore.Store
	// beforeWrite, if set, runs between a layer write's read of the
	// stack and its CAS: a test's hook for a write that loses the race.
	beforeWrite func()
}

// New returns a Service over store.
func New(store *jobstore.Store) *Service {
	return &Service{store: store}
}

// Store exposes the underlying store for read-side consumers (Task
// Service, State Syncer). Writers must go through the Service.
func (s *Service) Store() *jobstore.Store { return s.store }

// Provision admits a new job: it validates the full configuration and
// writes it, encoded straight from the struct, as the job's Base layer.
// This is what the Provision Service calls after compiling and optimizing
// an application (§II).
func (s *Service) Provision(cfg *config.JobConfig) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("jobservice: provision %q: %w", cfg.Name, err)
	}
	return s.store.Create(cfg.Name, wire.JobConfigBlob(cfg), cfg)
}

// Delete removes a job. The State Syncer will stop its tasks on the next
// round when it sees a running entry without an expected one.
func (s *Service) Delete(name string) error {
	return s.store.Delete(name)
}

// UpdateLayer applies edits — each sets the value at a dotted path — to
// the job's current copy of one layer and writes it back under CAS,
// retrying on version conflicts. The merged expected configuration that
// would result is validated first; an update that would break the job is
// rejected with no write.
//
// An edit holding a NaN or an infinity is rejected: no JSON form holds
// it, so the store could not be snapshotted. Only the values written are
// checked; the rest of the layer was checked when it was written. The
// edits are spliced into the layer's blob (wire.EditBlob), and the result
// is merged over the other three layers' blobs as they are
// (wire.MergeBlobs); the merge is decoded, validated, and handed to the
// write with its decoded config, which the store installs as the
// version's merged cache, so the State Syncer commits — and the Task
// Service and spec feed read — the very merge and config validated here.
func (s *Service) UpdateLayer(name string, layer config.Layer, edits ...wire.Edit) error {
	for _, e := range edits {
		if err := config.CheckFinite(e.Value); err != nil {
			// A copy of the path, so that no edit escapes (wire.EditBlob).
			return fmt.Errorf("jobservice: update %s/%s rejected: %s: %w", name, layer, strings.Clone(e.Path), err)
		}
	}
	return s.writeLayer(name, layer, edits, false)
}

// ClearLayer resets a layer to the empty document (e.g. removing an
// oncall override once the incident is over).
func (s *Service) ClearLayer(name string, layer config.Layer) error {
	return s.writeLayer(name, layer, nil, true)
}

// writeLayer is UpdateLayer's CAS loop: it writes the layer with edits
// spliced in, or the empty document if reset.
func (s *Service) writeLayer(name string, layer config.Layer, edits []wire.Edit, reset bool) error {
	var lastErr error
	for attempt := 0; attempt < maxCASRetries; attempt++ {
		base, err := s.store.GetExpected(name)
		if err != nil {
			return err
		}
		var doc wire.Blob
		if reset {
			doc, err = wire.EditBlob(nil)
		} else {
			doc, err = wire.EditBlob(base.Layers[layer], edits...)
		}
		if err != nil {
			return fmt.Errorf("jobservice: update %s/%s rejected: %w", name, layer, err)
		}

		// Validate the merged view with the candidate layer in place.
		layers := base.Layers
		layers[layer] = doc
		merged, err := wire.MergeBlobs(layers[:])
		if err != nil {
			return fmt.Errorf("jobservice: update %s/%s: %w", name, layer, err)
		}
		cfg, err := wire.DecodeJobConfigBlob(merged)
		if err != nil {
			return fmt.Errorf("jobservice: update %s/%s produces undecodable config: %w", name, layer, err)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("jobservice: update %s/%s rejected: %w", name, layer, err)
		}

		if s.beforeWrite != nil {
			s.beforeWrite()
		}
		_, err = s.store.SetLayer(name, layer, doc, base, &jobstore.Merged{Doc: merged, Config: cfg})
		if err == nil {
			return nil
		}
		if !errors.Is(err, jobstore.ErrVersionMismatch) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("jobservice: update %s/%s exceeded %d CAS retries: %w", name, layer, maxCASRetries, lastErr)
}

// Desired returns the job's merged expected configuration, typed, along
// with the version it reflects. The config is the store's shared one:
// callers must not modify it.
func (s *Service) Desired(name string) (*config.JobConfig, int64, error) {
	m, version, err := s.store.MergedExpected(name)
	if err != nil {
		return nil, 0, err
	}
	if m.Config == nil {
		return nil, 0, fmt.Errorf("jobservice: desired %s: the merged configuration is no JobConfig", name)
	}
	return m.Config, version, nil
}

// SetTaskCount writes a task-count override into the given layer. This is
// the Auto Scaler's horizontal-scaling write (layer Scaler) and the
// oncall's manual override (layer Oncall) from the paper's running
// example (§III-A).
func (s *Service) SetTaskCount(name string, layer config.Layer, n int) error {
	return s.UpdateLayer(name, layer, wire.Edit{Path: "taskCount", Value: n})
}

// SetTaskResources writes a per-task resource override into the given
// layer: the Auto Scaler's vertical-scaling write (§V-E). A zero field is
// left as the layer has it; a negative, NaN or infinite field, or a
// Resources with no field set, is rejected with nothing written.
func (s *Service) SetTaskResources(name string, layer config.Layer, r config.Resources) error {
	field := ""
	switch {
	case !(r.CPUCores >= 0) || math.IsInf(r.CPUCores, 1): // NaN fails every comparison
		field = "cpuCores"
	case r.MemoryBytes < 0:
		field = "memoryBytes"
	case r.DiskBytes < 0:
		field = "diskBytes"
	case r.NetworkBps < 0:
		field = "networkBps"
	case r == config.Resources{}:
		return fmt.Errorf("jobservice: update %s/%s rejected: no resource set", name, layer)
	}
	if field != "" {
		return fmt.Errorf("jobservice: update %s/%s rejected: taskResources.%s is neither zero nor finite and positive", name, layer, field)
	}
	var edits [4]wire.Edit
	n := 0
	if r.CPUCores > 0 {
		edits[n] = wire.Edit{Path: "taskResources.cpuCores", Value: r.CPUCores}
		n++
	}
	if r.MemoryBytes > 0 {
		edits[n] = wire.Edit{Path: "taskResources.memoryBytes", Value: r.MemoryBytes}
		n++
	}
	if r.DiskBytes > 0 {
		edits[n] = wire.Edit{Path: "taskResources.diskBytes", Value: r.DiskBytes}
		n++
	}
	if r.NetworkBps > 0 {
		edits[n] = wire.Edit{Path: "taskResources.networkBps", Value: r.NetworkBps}
		n++
	}
	return s.UpdateLayer(name, layer, edits[:n]...)
}

// SetPackageVersion writes a package release into the Provisioner layer —
// the cluster-wide engine upgrade path (§I, §III-B "package release").
func (s *Service) SetPackageVersion(name, version string) error {
	return s.UpdateLayer(name, config.LayerProvisioner, wire.Edit{Path: "package.version", Value: version})
}

// SetMaxTaskCount writes a horizontal-scaling cap into the Oncall layer
// (operators temporarily lift the default cap during recoveries, §VI-B1).
func (s *Service) SetMaxTaskCount(name string, n int) error {
	return s.UpdateLayer(name, config.LayerOncall, wire.Edit{Path: "maxTaskCount", Value: n})
}

// SetStopped writes the administrative stop bit into the Oncall layer;
// the Capacity Manager uses it to park low-priority jobs (§V-F).
func (s *Service) SetStopped(name string, stopped bool) error {
	return s.UpdateLayer(name, config.LayerOncall, wire.Edit{Path: "stopped", Value: stopped})
}

// QuarantinedJob is one quarantined job and the reason the State Syncer
// parked it.
type QuarantinedJob struct {
	Name   string
	Reason string
}

// Quarantined lists every quarantined job with its reason, sorted by
// name — the oncall's view of what the State Syncer has given up on.
func (s *Service) Quarantined() []QuarantinedJob {
	names := s.store.QuarantinedNames()
	out := make([]QuarantinedJob, 0, len(names))
	for _, name := range names {
		q, ok := s.store.Quarantined(name)
		if !ok {
			continue // cleared between list and read
		}
		out = append(out, QuarantinedJob{Name: name, Reason: q.Reason})
	}
	return out
}

// ClearQuarantine lifts a job's quarantine so the State Syncer retries
// it on its next round. Clearing a job that is not quarantined is an
// error — the oncall almost certainly mistyped the name.
func (s *Service) ClearQuarantine(name string) error {
	if _, ok := s.store.Quarantined(name); !ok {
		return fmt.Errorf("jobservice: job %q is not quarantined", name)
	}
	s.store.ClearQuarantine(name)
	return nil
}
