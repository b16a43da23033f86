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

// UpdateLayer applies mutate to the job's current copy of one layer and
// writes it back under CAS, retrying on version conflicts. The merged
// expected configuration that would result is validated first; an update
// that would break the job is rejected with no write.
//
// Only the layer handed to mutate is decoded — a document of the
// caller's own, which mutate may modify and return, or replace. A
// candidate layer holding a NaN or an infinity is rejected: no JSON form
// holds it, so the store could not be snapshotted. The candidate is
// encoded and merged over the other three layers' blobs as they are
// (wire.MergeBlobs); the merge is decoded, validated, and handed to the
// write with its decoded config, which the store installs as the
// version's merged cache, so the State Syncer commits — and the Task
// Service and spec feed read — the very merge and config validated here.
func (s *Service) UpdateLayer(name string, layer config.Layer, mutate func(config.Doc) config.Doc) error {
	var lastErr error
	for attempt := 0; attempt < maxCASRetries; attempt++ {
		base, err := s.store.GetExpected(name)
		if err != nil {
			return err
		}
		cur, err := base.Layers[layer].Doc()
		if err != nil {
			return fmt.Errorf("jobservice: update %s/%s: %w", name, layer, err)
		}
		if cur == nil {
			cur = config.Doc{}
		}
		next := mutate(cur)
		if next == nil {
			next = config.Doc{}
		}
		if err := next.CheckFinite(); err != nil {
			return fmt.Errorf("jobservice: update %s/%s rejected: %w", name, layer, err)
		}
		doc, err := wire.EncodeDoc(next)
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
		if err == nil && cfg == nil {
			// Rare: decode the document to name the field that does not fit.
			d, _ := merged.Doc()
			_, err = config.JobConfigFromDoc(d)
		}
		if err != nil {
			return fmt.Errorf("jobservice: update %s/%s produces undecodable config: %w", name, layer, err)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("jobservice: update %s/%s rejected: %w", name, layer, err)
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
	return s.UpdateLayer(name, layer, func(d config.Doc) config.Doc {
		return d.SetPath("taskCount", n)
	})
}

// SetTaskResources writes a per-task resource override into the given
// layer: the Auto Scaler's vertical-scaling write (§V-E).
func (s *Service) SetTaskResources(name string, layer config.Layer, r config.Resources) error {
	return s.UpdateLayer(name, layer, func(d config.Doc) config.Doc {
		if r.CPUCores > 0 {
			d.SetPath("taskResources.cpuCores", r.CPUCores)
		}
		if r.MemoryBytes > 0 {
			d.SetPath("taskResources.memoryBytes", r.MemoryBytes)
		}
		if r.DiskBytes > 0 {
			d.SetPath("taskResources.diskBytes", r.DiskBytes)
		}
		if r.NetworkBps > 0 {
			d.SetPath("taskResources.networkBps", r.NetworkBps)
		}
		return d
	})
}

// SetPackageVersion writes a package release into the Provisioner layer —
// the cluster-wide engine upgrade path (§I, §III-B "package release").
func (s *Service) SetPackageVersion(name, version string) error {
	return s.UpdateLayer(name, config.LayerProvisioner, func(d config.Doc) config.Doc {
		return d.SetPath("package.version", version)
	})
}

// SetMaxTaskCount writes a horizontal-scaling cap into the Oncall layer
// (operators temporarily lift the default cap during recoveries, §VI-B1).
func (s *Service) SetMaxTaskCount(name string, n int) error {
	return s.UpdateLayer(name, config.LayerOncall, func(d config.Doc) config.Doc {
		return d.SetPath("maxTaskCount", n)
	})
}

// SetStopped writes the administrative stop bit into the Oncall layer;
// the Capacity Manager uses it to park low-priority jobs (§V-F).
func (s *Service) SetStopped(name string, stopped bool) error {
	return s.UpdateLayer(name, config.LayerOncall, func(d config.Doc) config.Doc {
		return d.SetPath("stopped", stopped)
	})
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

// ClearLayer resets a layer to empty (e.g. removing an oncall override
// once the incident is over).
func (s *Service) ClearLayer(name string, layer config.Layer) error {
	return s.UpdateLayer(name, layer, func(config.Doc) config.Doc {
		return config.Doc{}
	})
}
