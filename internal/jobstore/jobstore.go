// Package jobstore is Turbine's Job Store (paper §III): the repository of
// current and desired configuration parameters for every job.
//
// Following Table I, each job has two records:
//
//   - the Expected Job entry: four partial configuration layers (Base,
//     Provisioner, Scaler, Oncall) whose precedence-ordered merge is the
//     desired state. Different actors own different layers and update them
//     independently.
//   - the Running Job entry: the configuration the cluster is actually
//     running. Only the State Syncer writes it, and only after the actions
//     that realize it succeeded — that commit discipline is what gives job
//     updates their atomicity.
//
// Every document the store holds — each layer, each version's merge, each
// running entry — is one immutable wire.Blob in the canonical sorted-key
// encoding, so reads share it without copying and the heap holds no map
// trees. Every job carries a single version covering its expected layers.
// Writers follow read-modify-write: they pass back the stack their
// decision was based on — its version and its very layer blobs — and the
// store rejects
// stale writes (ErrVersionMismatch). This is the consistency guarantee
// the Job Service relies on when, e.g., two oncalls update the oncall
// configuration simultaneously (§III-A).
//
// Concurrency layout: entries live in 64 lock stripes keyed by an FNV-1a
// hash of the job name, so per-job reads, CAS writes, and running-entry
// commits on different jobs never contend on one mutex. The running-name
// listing is a copy-on-write sorted snapshot rebuilt lazily after a name
// set change — steady-state reads are allocation-free pointer loads.
// Each stripe also keeps the exact set of its jobs that can need State
// Syncer work — an entry missing, running realizing another expected
// version, or a durable sync record held — refreshed under the write lock
// by every write to an entry or a sync record, so a round reads just
// those jobs and a converged fleet costs it nothing.
package jobstore

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/config"
	"repro/internal/stripe"
	"repro/internal/wire"
)

// ErrVersionMismatch is returned by compare-and-set writes whose base
// stack is stale: another writer updated the job first, or the job was
// deleted and re-created. Callers must re-read, re-apply their decision,
// and retry.
var ErrVersionMismatch = errors.New("jobstore: version mismatch")

// ErrNotFound is returned when the named job has no expected entry.
var ErrNotFound = errors.New("jobstore: job not found")

// AnyVersion passes CAS unconditionally. Reserved for actors whose writes
// must not be lost to races (oncall emergency overrides).
const AnyVersion int64 = -1

// numStripes is the lock-stripe count. Like the metrics store's series
// stripes and the Shard Manager's load stripes, 64 keeps the probability
// of two concurrent writers hashing onto one mutex low at fleet scale
// while the fixed array stays cache-friendly.
const numStripes = 64

// Expected is a job's expected configuration stack. Its layer blobs are
// IMMUTABLE and shared: a write replaces a layer, never modifies one.
type Expected struct {
	Layers  [4]wire.Blob // indexed by config.Layer; empty layers unset
	Version int64

	// merged caches the precedence merge of Layers as of mergedVersion,
	// with its typed config: installed by the layer write that validated
	// it (SetLayer), or computed by the first MergedExpected of a
	// version that has none. Maintained only on the store's canonical
	// entries (not on stacks handed to callers); invisible to JSON
	// serialization.
	merged        Merged
	mergedVersion int64
}

// Merged is one expected version in both of its forms: the precedence
// merge of its layers (Algorithm 1, wire.MergeBlobs) and the JobConfig
// that merge decodes to — nil when it is no JobConfig. Each version is
// decoded once — by the Job Service's validation, or by the first merge
// of a version written without one — and commits to the running entry
// with its config, which the Task Service, the spec feed and the monitor
// read (a running entry read from a snapshot is decoded once, by
// Restore). Both are IMMUTABLE and shared once the store holds them; the
// config's strings are views of the blob.
type Merged struct {
	Doc    wire.Blob
	Config *config.JobConfig
}

// decoded pairs doc, a well-formed document, with its typed config: nil
// if it is no JobConfig, the one error its decode can then return.
func decoded(doc wire.Blob) Merged {
	cfg, _ := wire.DecodeJobConfigBlob(doc)
	return Merged{Doc: doc, Config: cfg}
}

// share gives m's config, before anyone else holds it, the strings it
// has in common with prev, the config of the job's previous version.
func (m *Merged) share(prev *config.JobConfig) {
	if m.Config != nil {
		m.Config.ShareStrings(prev)
	}
}

// Running is a job's running configuration as a document, shared with
// every other reader of the entry and IMMUTABLE.
type Running struct {
	Config config.Doc
}

// runEntry is the store's running entry; its exported fields are its
// serialized form.
type runEntry struct {
	Config  wire.Blob
	Version int64 // the expected version this running state realizes

	// typed is Config's JobConfig, nil if Config is no JobConfig.
	typed *config.JobConfig

	// doc is Config decoded, once, by the first GetRunningShared of the
	// entry; nil until then.
	doc config.Doc

	// revision is a store-wide monotonic sequence stamped on every
	// CommitRunning that changes Config. Unlike Version (which tracks the
	// expected entry the running state realizes), it moves exactly when
	// content does, so read-path caches keyed on it can never serve stale
	// content, and a commit that moves only Version rebuilds nothing.
	revision int64
}

// Quarantine marks a job the State Syncer gave up on after repeated
// failed synchronizations; an oncall must investigate (§III-B).
type Quarantine struct {
	Reason string
}

// SyncState is the State Syncer's crash-critical per-job bookkeeping,
// persisted in the store so it survives a syncer restart (the paper's
// durability leg of ACIDF). A syncer restored from a snapshot resumes
// failure streaks, backoff deadlines, and pending post-commit follow-up
// actions exactly where its predecessor died.
type SyncState struct {
	// FailureStreak counts consecutive failed synchronizations; the
	// syncer quarantines the job when it reaches its threshold.
	FailureStreak int `json:"failureStreak,omitempty"`
	// NextRetryAt is the earliest time the syncer may retry the job
	// (bounded exponential backoff). Zero means retry immediately.
	NextRetryAt time.Time `json:"nextRetryAt"`
	// FollowUps are the keys of post-commit actions (e.g. "resume") that
	// were committed but not yet executed — the write-ahead record that
	// lets a restarted syncer finish a half-done complex update.
	FollowUps []string `json:"followUps,omitempty"`
}

func (ss *SyncState) empty() bool {
	return ss.FailureStreak == 0 && len(ss.FollowUps) == 0
}

func (ss *SyncState) clone() *SyncState {
	out := *ss
	if ss.FollowUps != nil {
		out.FollowUps = append([]string(nil), ss.FollowUps...)
	}
	return &out
}

// CommitHooks intercept CommitRunning: Before runs ahead of the write
// (returning an error aborts the commit), After runs once the write is
// visible. Both run outside the stripe locks. Used by the fault injector
// to model crash-before-commit vs crash-after-commit.
type CommitHooks struct {
	Before func(name string) error
	After  func(name string)
}

// stripe holds the entries of the jobs hashing onto it. Each stripe has
// its own mutex; cross-job operations never serialize on a global lock.
type jobStripe struct {
	mu          sync.RWMutex
	expected    map[string]*Expected
	running     map[string]*runEntry
	quarantined map[string]Quarantine
	// sync holds the State Syncer's durable per-job bookkeeping (failure
	// streaks, backoff deadlines, pending follow-up actions).
	sync map[string]*SyncState
	// diverged is exactly the set of the stripe's jobs that may need
	// State Syncer work: an expected or a running entry is missing,
	// running realizes a different expected version — the negation of the
	// converged test planJob applies — or the job holds a sync record (a
	// failure streak or a pending resume). Every write to an entry or a
	// sync record refreshes the job's membership (noteLocked) under the
	// write lock, so the set can be neither lost nor stale; it is derived
	// state, rebuilt by Restore and never serialized.
	diverged map[string]struct{}
}

// noteLocked recomputes the job's membership in the diverged set from
// its entries and its sync record. The caller holds st's write lock.
func (st *jobStripe) noteLocked(name string) {
	e, hasExp := st.expected[name]
	r, hasRun := st.running[name]
	_, held := st.sync[name]
	converged := hasExp && hasRun && e.Version == r.Version
	if !held && (converged || !hasExp && !hasRun) {
		delete(st.diverged, name)
		return
	}
	st.diverged[name] = struct{}{}
}

// reset empties every per-job map of the stripe. The caller holds st's
// write lock (or owns the store exclusively).
func (st *jobStripe) reset() {
	st.expected = make(map[string]*Expected)
	st.running = make(map[string]*runEntry)
	st.quarantined = make(map[string]Quarantine)
	st.sync = make(map[string]*SyncState)
	st.diverged = make(map[string]struct{})
}

// nameIndex maintains a copy-on-write sorted name snapshot over the
// striped maps. Readers load the published snapshot with one atomic read
// and zero allocations; mutations only mark the index dirty, and the
// first read after a mutation (or burst of mutations) rebuilds once.
type nameIndex struct {
	dirty atomic.Bool
	mu    sync.Mutex // serializes rebuilds
	snap  atomic.Pointer[[]string]
}

func (ni *nameIndex) invalidate() { ni.dirty.Store(true) }

// names returns the current sorted snapshot, rebuilding via collect if a
// mutation invalidated it. The returned slice is shared and must not be
// modified by callers.
func (ni *nameIndex) names(collect func() []string) []string {
	if !ni.dirty.Load() {
		if p := ni.snap.Load(); p != nil {
			return *p
		}
	}
	ni.mu.Lock()
	defer ni.mu.Unlock()
	if !ni.dirty.Load() {
		if p := ni.snap.Load(); p != nil {
			return *p
		}
	}
	// Clear the flag BEFORE collecting: a mutation that lands mid-rebuild
	// re-marks the index and the next read rebuilds again, so a rebuilt
	// snapshot can never silently miss a concurrent name change.
	ni.dirty.Store(false)
	s := collect()
	sort.Strings(s)
	ni.snap.Store(&s)
	return s
}

// Store is the in-memory Job Store. Safe for concurrent use.
type Store struct {
	stripes  [numStripes]jobStripe
	revSeq   atomic.Int64 // source of Running.revision values
	runNames nameIndex

	commitHooks atomic.Pointer[CommitHooks]

	// journal is the bounded running-entry change ring behind
	// ChangesSince; see journal.go.
	journal journal

	// leases is the shard-lease table (see lease.go); nil until the
	// first acquire or restore.
	leaseMu sync.Mutex
	leases  map[int]*ShardLease
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	for i := range s.stripes {
		s.stripes[i].reset()
	}
	empty := []string{}
	s.runNames.snap.Store(&empty)
	return s
}

// NumStripes is the store's lock-stripe count, exported so shard layers
// can partition the job universe along stripe boundaries: a job's stripe
// is a pure function of its name (StripeOf), so "stripes [lo, hi)" is a
// stable, store-independent slice of the fleet.
const NumStripes = numStripes

// StripeOf returns the stripe index the job name hashes onto (FNV-1a),
// in [0, NumStripes). State Syncer Nodes use it to route jobs to the
// shard slice owning their stripe.
func StripeOf(name string) int {
	return int(stripe.Hash(name) & (numStripes - 1))
}

// stripeFor hashes a job name onto its stripe (FNV-1a).
func (s *Store) stripeFor(name string) *jobStripe {
	return &s.stripes[StripeOf(name)]
}

// Create registers a new job whose Base layer is base, a document the
// store copies: no two Create calls share a blob, so a layer blob names
// one incarnation of a job (see SetLayer). It fails if the job already
// exists or base is no well-formed document. The job starts
// unquarantined, at version 1 — or, when a deleted namesake's running
// entry still awaits its teardown, one above that entry's version, so the
// new job stays diverged until the State Syncer commits its own
// configuration.
//
// src, when not nil, is the config base was encoded from: the store then
// decodes the version's config at once and gives it src's strings
// (config.JobConfig.ShareStrings), which every later version of the job
// inherits, so the caller's maps keyed by them find the job's by pointer.
func (s *Store) Create(name string, base wire.Blob, src *config.JobConfig) error {
	if err := checkName(name); err != nil {
		return fmt.Errorf("jobstore: create: %w", err)
	}
	if err := wire.CheckDoc(base); err != nil {
		return fmt.Errorf("jobstore: create %q: %w", name, err)
	}
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.expected[name]; ok {
		return fmt.Errorf("jobstore: job %q already exists", name)
	}
	e := &Expected{Version: 1}
	if r, ok := st.running[name]; ok {
		e.Version = r.Version + 1
	}
	e.Layers[config.LayerBase] = bytes.Clone(base)
	if src != nil {
		e.merged, e.mergedVersion = decoded(e.Layers[config.LayerBase]), e.Version
		e.merged.share(src)
	}
	st.expected[name] = e
	delete(st.quarantined, name)
	st.noteLocked(name)
	return nil
}

// Delete removes a job's expected entry. The running entry remains until
// the State Syncer has stopped the job's tasks and calls DropRunning; the
// syncer detects deletion as "running without expected".
func (s *Store) Delete(name string) error {
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.expected[name]; !ok {
		return ErrNotFound
	}
	delete(st.expected, name)
	delete(st.quarantined, name)
	st.noteLocked(name)
	return nil
}

// GetExpected returns the job's expected stack. Its layer blobs are the
// store's own, IMMUTABLE and shared: SetLayer replaces a layer and never
// writes into the old blob. This is the Job Service's read-modify-write
// read: it decodes the one layer it edits, and passes the stack back to
// SetLayer as the base of its write.
func (s *Store) GetExpected(name string) (Expected, error) {
	st := s.stripeFor(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.expected[name]
	if !ok {
		return Expected{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return Expected{Layers: e.Layers, Version: e.Version}, nil
}

// SetLayer replaces one expected layer under compare-and-set and returns
// the job's new version, which puts the job in the diverged set until
// the State Syncer commits a running entry realizing it.
//
// base is the stack the write was computed from, as GetExpected returned
// it. The write lands only if the job's entry still holds that very
// stack: the same version, and in each of the four layers the same blob
// (identity, not content). A job deleted and re-created in between may
// restart at its predecessor's version, even with a byte-identical
// config, but holds a new Base blob (Create copies), so a write read from
// its predecessor fails with ErrVersionMismatch like any stale write. A
// base whose Version is AnyVersion writes unconditionally.
//
// doc is a document, or empty to unset the layer. The store keeps doc
// itself, without copying it: the caller hands it over and must not
// modify it afterwards.
//
// merged is the caller's merge of the new stack — wire.MergeBlobs of
// base.Layers with doc in place of base.Layers[layer] — with the
// JobConfig it decodes to, or nil. When the CAS proved base current, the
// store installs it as the new version's merged cache, so the next
// MergedExpected serves the merge and the config the writer validated
// instead of computing them again; first it gives the config the strings
// it has in common with the previous version's. Both are immutable and
// shared from then on, like every cached merge. An AnyVersion write
// proves nothing and ignores it.
func (s *Store) SetLayer(name string, layer config.Layer, doc wire.Blob, base Expected, merged *Merged) (int64, error) {
	if !layer.Valid() {
		return 0, fmt.Errorf("jobstore: invalid layer %v", layer)
	}
	if len(doc) > 0 {
		if err := wire.CheckDoc(doc); err != nil {
			return 0, fmt.Errorf("jobstore: set %s/%s: %w", name, layer, err)
		}
	}
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.expected[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	current := e.Version == base.Version && sameLayers(&e.Layers, &base.Layers)
	if !current {
		if base.Version != AnyVersion {
			return 0, fmt.Errorf("%w: job %s at version %d is not the stack the write read (version %d)", ErrVersionMismatch, name, e.Version, base.Version)
		}
		merged = nil // built from a stack the store does not hold
	}
	e.Layers[layer] = doc
	e.Version++
	prev := e.merged.Config
	e.merged, e.mergedVersion = Merged{}, e.Version
	if merged != nil {
		e.merged = *merged
		e.merged.share(prev)
	}
	st.noteLocked(name)
	return e.Version, nil
}

// sameLayers reports whether two stacks hold the very same layer blobs:
// the same bytes in memory, not equal content (both empty counts as the
// same).
func sameLayers(a, b *[4]wire.Blob) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) || unsafe.SliceData(a[i]) != unsafe.SliceData(b[i]) {
			return false
		}
	}
	return true
}

// MergedExpected returns the effective desired configuration — the
// precedence merge of all expected layers (Algorithm 1) with its typed
// config — and the version it reflects. Both are cached per version on
// the store's entry: a Job Service layer write installs the merge and
// config it validated, and a version written without them (Create, an
// AnyVersion write, Restore) pays for the merge and one decode on its
// first read; every other read is a map lookup. The returned blob and
// config are IMMUTABLE and shared. This is the State Syncer's per-round
// read path: a round over tens of thousands of jobs neither re-merges nor
// re-decodes.
func (s *Store) MergedExpected(name string) (Merged, int64, error) {
	st := s.stripeFor(name)
	st.mu.RLock()
	e, ok := st.expected[name]
	if ok && e.merged.Doc != nil && e.mergedVersion == e.Version {
		out, v := e.merged, e.Version
		st.mu.RUnlock()
		return out, v, nil
	}
	st.mu.RUnlock()
	if !ok {
		return Merged{}, 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok = st.expected[name] // re-check: the job may have been deleted
	if !ok {
		return Merged{}, 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if e.merged.Doc == nil || e.mergedVersion != e.Version {
		// A job configured by one layer merges to that layer's blob itself.
		doc, err := wire.MergeBlobs(e.Layers[:])
		if err != nil {
			return Merged{}, 0, fmt.Errorf("jobstore: merge %s: %w", name, err)
		}
		prev := e.merged.Config
		e.merged = decoded(doc)
		e.merged.share(prev)
		e.mergedVersion = e.Version
	}
	return e.merged, e.Version, nil
}

// GetRunningShared returns the job's running configuration as a document
// shared with every other caller: decoded by the entry's first read and
// kept with the entry, so a reader that polls the fleet's documents
// decodes each commit once. It is IMMUTABLE — callers must not modify it.
func (s *Store) GetRunningShared(name string) (Running, bool) {
	st := s.stripeFor(name)
	st.mu.RLock()
	r, ok := st.running[name]
	if ok && r.doc != nil {
		out := Running{Config: r.doc}
		st.mu.RUnlock()
		return out, true
	}
	st.mu.RUnlock()
	if !ok {
		return Running{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok = st.running[name] // re-check: the entry may have been replaced
	if !ok {
		return Running{}, false
	}
	if r.doc == nil {
		d, err := r.Config.Doc()
		if err != nil {
			return Running{}, false // the store holds well-formed documents only
		}
		r.doc = d
	}
	return Running{Config: r.doc}, true
}

// RunningDoc returns the job's running entry as the Merged it was
// committed from, and the expected version it realizes. Both are
// IMMUTABLE and shared. The State Syncer reads it once per candidate
// job: the version short-circuits a converged job, and the blob is what
// it diffs the merge against.
func (s *Store) RunningDoc(name string) (Merged, int64, bool) {
	st := s.stripeFor(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	r, ok := st.running[name]
	if !ok {
		return Merged{}, 0, false
	}
	return Merged{Doc: r.Config, Config: r.typed}, r.Version, true
}

// RunningEntry returns a job's running configuration, typed — nil if its
// document is no JobConfig — and its store-wide commit revision, under a
// single stripe lock. The returned config is IMMUTABLE and shared. This
// is the read of the spec feed, the Task Service and the cluster's
// monitor: the config was decoded once, when its version was. The
// revision moves on every CommitRunning that changes content: the Task
// Service keys its per-job spec groups on it, and it rides every encoded
// delta so a remote mirror can skip re-applying an entry it already
// holds. The expected version the entry realizes is the State Syncer's
// business alone (RunningDoc).
func (s *Store) RunningEntry(name string) (cfg *config.JobConfig, revision int64, ok bool) {
	st := s.stripeFor(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	r, present := st.running[name]
	if !present {
		return nil, 0, false
	}
	return r.typed, r.revision, true
}

// PlanView is everything the State Syncer's per-candidate prologue needs
// to classify a job, gathered under a single stripe lock: one RLock and
// four map lookups instead of four separate calls. Candidates are the
// diverged set's members only, so converged jobs without a sync record
// never reach this read.
type PlanView struct {
	HasExpected bool
	HasRunning  bool
	// Converged reports that running realizes the expected version.
	Converged   bool
	Quarantined bool
	// FailureStreak and NextRetryAt mirror the job's SyncState (zero
	// values if it has none), and Resume reports that it holds follow-ups:
	// a committed plan's post-commit resume is still pending.
	FailureStreak int
	NextRetryAt   time.Time
	Resume        bool
}

// PlanViewOf reads a job's plan-relevant state in one locked pass.
func (s *Store) PlanViewOf(name string) PlanView {
	st := s.stripeFor(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, hasExp := st.expected[name]
	r, hasRun := st.running[name]
	v := PlanView{HasExpected: hasExp, HasRunning: hasRun, Converged: hasExp && hasRun && e.Version == r.Version}
	_, v.Quarantined = st.quarantined[name]
	if ss, ok := st.sync[name]; ok {
		v.FailureStreak = ss.FailureStreak
		v.NextRetryAt = ss.NextRetryAt
		v.Resume = len(ss.FollowUps) > 0
	}
	return v
}

// CommitRunning records that the cluster now runs m, which realizes
// expected version version. Only the State Syncer calls this, and only
// after the execution plan completed — the atomic commit point of a job
// update (§III-B). The store keeps m's blob and config themselves: the
// syncer commits the merge it read via MergedExpected, so the batched
// simple-sync path copies and decodes nothing. When m.Config is nil the
// store decodes it from m.Doc, so an entry's config is always its blob's
// decode. A commit of the very bytes the entry already holds moves only
// its version: no new revision, no journal entry, so nothing downstream
// redoes the job. A revision, and so a journal entry, moves exactly when
// content does. The error is nil unless m.Doc is no well-formed
// document, or commit hooks (fault injection) are installed.
func (s *Store) CommitRunning(name string, m Merged, version int64) error {
	if m.Config == nil {
		cfg, err := wire.DecodeJobConfigBlob(m.Doc)
		if errors.Is(err, wire.ErrMalformed) {
			return fmt.Errorf("jobstore: commit %s: %w", name, err)
		}
		m.Config = cfg
	}
	hooks := s.commitHooks.Load()
	if hooks != nil && hooks.Before != nil {
		if err := hooks.Before(name); err != nil {
			return err
		}
	}
	st := s.stripeFor(name)
	st.mu.Lock()
	r, existed := st.running[name]
	moved := !existed || !bytes.Equal(r.Config, m.Doc)
	if moved {
		st.running[name] = &runEntry{Config: m.Doc, Version: version, typed: m.Config, revision: s.revSeq.Add(1)}
	} else {
		r.Version = version // every reader of an entry's fields holds the stripe lock
	}
	st.noteLocked(name)
	st.mu.Unlock()
	if !existed {
		s.runNames.invalidate()
	}
	if moved {
		// Journal AFTER the write is visible: a consumer that sees the
		// entry is guaranteed to read this commit (or a newer one).
		s.journal.append(name, false)
	}
	if hooks != nil && hooks.After != nil {
		hooks.After(name)
	}
	return nil
}

// SetCommitHooks installs (or, with nil, removes) the commit intercept
// points. Only the fault injector uses this; production clusters run
// with no hooks and pay a single atomic load per commit.
func (s *Store) SetCommitHooks(h *CommitHooks) {
	s.commitHooks.Store(h)
}

// DropRunning removes the running entry after a deleted job's tasks have
// been stopped. A job with no expected entry is then gone, and so is any
// quarantine its failed teardowns left.
func (s *Store) DropRunning(name string) {
	st := s.stripeFor(name)
	st.mu.Lock()
	_, existed := st.running[name]
	if existed {
		delete(st.running, name)
		if _, ok := st.expected[name]; !ok {
			delete(st.quarantined, name)
		}
		st.noteLocked(name)
	}
	st.mu.Unlock()
	if existed {
		s.runNames.invalidate()
		s.journal.append(name, true)
	}
}

// ExpectedNames returns all jobs with an expected entry, sorted, in a
// fresh slice the caller owns. Only offline tools list the expected side
// of the fleet, so unlike RunningNames it collects on every call.
func (s *Store) ExpectedNames() []string {
	out := s.collectNames(func(st *jobStripe) int { return len(st.expected) }, func(st *jobStripe, out []string) []string {
		for k := range st.expected {
			out = append(out, k)
		}
		return out
	})
	sort.Strings(out)
	return out
}

// RunningNames returns all jobs with a running entry, sorted. The
// returned slice is a shared copy-on-write snapshot: callers must not
// modify it. Steady-state calls are a single atomic load — the monitor,
// the Task Service and the spec feed's resync walk read it on hot paths.
func (s *Store) RunningNames() []string {
	return s.runNames.names(func() []string {
		return s.collectNames(func(st *jobStripe) int { return len(st.running) }, func(st *jobStripe, out []string) []string {
			for k := range st.running {
				out = append(out, k)
			}
			return out
		})
	})
}

// collectNames gathers names across stripes, taking each stripe's read
// lock only while copying its keys.
func (s *Store) collectNames(size func(*jobStripe) int, appendKeys func(*jobStripe, []string) []string) []string {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n += size(st)
		st.mu.RUnlock()
	}
	out := make([]string, 0, n)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		out = appendKeys(st, out)
		st.mu.RUnlock()
	}
	return out
}

// DivergedRangeInto appends to buf the diverged jobs of stripes [lo, hi)
// — an expected or a running entry is missing, running realizes a
// different expected version, or a sync record is held — sorts only what
// it appended, and returns the extended slice. It reads each stripe's
// diverged set under one read lock, so it costs O(stripes + diverged
// jobs) and, with a reusable buffer, a converged range allocates
// nothing. This is every State Syncer round's one candidate feed.
func (s *Store) DivergedRangeInto(lo, hi int, buf []string) []string {
	out := buf
	for i := lo; i < hi; i++ {
		st := &s.stripes[i]
		st.mu.RLock()
		for name := range st.diverged {
			out = append(out, name)
		}
		st.mu.RUnlock()
	}
	slices.Sort(out[len(buf):])
	return out
}

// SetQuarantine marks a job quarantined with a reason. Quarantine leaves
// the diverged set alone: the State Syncer's planJob answers a
// quarantined job itself.
func (s *Store) SetQuarantine(name, reason string) {
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.quarantined[name] = Quarantine{Reason: reason}
}

// ClearQuarantine lifts a job's quarantine. A job still diverged is in
// the diverged set already, so the State Syncer retries it next round.
func (s *Store) ClearQuarantine(name string) {
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.quarantined, name)
}

// Quarantined reports whether a job is quarantined, and why.
func (s *Store) Quarantined(name string) (Quarantine, bool) {
	st := s.stripeFor(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	q, ok := st.quarantined[name]
	return q, ok
}

// QuarantinedNames returns all quarantined job names, sorted. Quarantine
// is rare, so this collects per call rather than maintaining a snapshot.
func (s *Store) QuarantinedNames() []string {
	out := s.collectNames(func(st *jobStripe) int { return len(st.quarantined) }, func(st *jobStripe, out []string) []string {
		for k := range st.quarantined {
			out = append(out, k)
		}
		return out
	})
	sort.Strings(out)
	return out
}

// SyncStateOf returns a copy of the job's durable sync bookkeeping.
func (s *Store) SyncStateOf(name string) (SyncState, bool) {
	st := s.stripeFor(name)
	st.mu.RLock()
	defer st.mu.RUnlock()
	ss, ok := st.sync[name]
	if !ok {
		return SyncState{}, false
	}
	return *ss.clone(), true
}

// UpdateSyncState applies fn to the job's sync state under the stripe
// lock, creating the entry if absent. An entry left empty (no streak, no
// follow-ups) is removed, so converged jobs carry no durable residue and
// leave the diverged set.
func (s *Store) UpdateSyncState(name string, fn func(*SyncState)) {
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.sync[name]
	if !ok {
		ss = &SyncState{}
	}
	fn(ss)
	if ss.empty() {
		delete(st.sync, name)
	} else {
		st.sync[name] = ss
	}
	st.noteLocked(name)
}

// ResolveFailureStreak clears the job's failure streak and backoff
// deadline, dropping the record entirely if nothing else (pending
// follow-ups) keeps it alive. Equivalent to UpdateSyncState with a
// streak-zeroing mutator, but allocation-free when the job has no
// durable record — the overwhelmingly common case on the State Syncer's
// per-success path.
func (s *Store) ResolveFailureStreak(name string) {
	st := s.stripeFor(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.sync[name]
	if !ok {
		return
	}
	ss.FailureStreak = 0
	ss.NextRetryAt = time.Time{}
	if ss.empty() {
		delete(st.sync, name)
		st.noteLocked(name)
	}
}

// ClearSyncState drops the job's durable sync bookkeeping (teardown
// completed, or the job's accounting is being reset).
func (s *Store) ClearSyncState(name string) {
	st := s.stripeFor(name)
	st.mu.Lock()
	delete(st.sync, name)
	st.noteLocked(name)
	st.mu.Unlock()
}

// snapshotSchema identifies the current serialized layout. Schema 4
// dropped the dirty set, which Restore now derives from the entries;
// schema 3 added the shard-lease table; schema 2 added the dirty set and
// the per-job sync states; schema 1 (implicit, field absent) predates
// them. Restore reads schemas 2 to 4, ignoring a serialized dirty set,
// and rejects older ones: they lack the crash-critical syncer state.
const snapshotSchema = 4

// snapshot is the serialized form of the whole store. A blob marshals as
// the document it encodes, so holding documents as blobs left the layout
// as it was; Restore reads an integer literal in int64 range as that
// exact int64 and any other number as a float64 (wire.Blob.UnmarshalJSON).
type snapshot struct {
	Schema      int                   `json:"schema,omitempty"`
	Expected    map[string]*Expected  `json:"expected"`
	Running     map[string]*runEntry  `json:"running"`
	Quarantined map[string]Quarantine `json:"quarantined"`
	// Sync carries the State Syncer's crash-critical state so a syncer
	// restored from a snapshot resumes exactly where it died.
	Sync map[string]*SyncState `json:"sync,omitempty"`
	// ShardLeases carries the shard-ownership table, so a restored
	// cluster resumes with the lease map it crashed with (schema 3).
	ShardLeases []ShardLease `json:"shardLeases,omitempty"`
}

// Snapshot serializes the full store to JSON, for durability and for
// offline inspection by turbinectl. Stripe locks are taken in index
// order, so the snapshot is a consistent point-in-time view.
func (s *Store) Snapshot() ([]byte, error) {
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
	}
	defer func() {
		for i := range s.stripes {
			s.stripes[i].mu.RUnlock()
		}
	}()
	snap := snapshot{
		Schema:      snapshotSchema,
		Expected:    make(map[string]*Expected),
		Running:     make(map[string]*runEntry),
		Quarantined: make(map[string]Quarantine),
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		for k, v := range st.expected {
			snap.Expected[k] = v
		}
		for k, v := range st.running {
			snap.Running[k] = v
		}
		for k, v := range st.quarantined {
			snap.Quarantined[k] = v
		}
		for k, v := range st.sync {
			if snap.Sync == nil {
				snap.Sync = make(map[string]*SyncState)
			}
			snap.Sync[k] = v
		}
	}
	snap.ShardLeases = s.ShardLeases()
	return json.MarshalIndent(snap, "", "  ")
}

// Restore replaces the store's contents from a Snapshot. Every running
// entry is restamped with a fresh revision so spec caches rebuild rather
// than trust pre-restore state. The per-job sync states come from the
// snapshot and the diverged set is rebuilt from the restored entries and
// sync states, so a syncer restarted from it converges in one ordinary
// round. A snapshot whose schema is below 2 (or absent) carries no sync
// states, and one with a null expected entry or a running entry without
// a document holds no job: both are rejected with an error, leaving the
// store as it was, and so is a job name in any section longer than
// config.MaxJobNameLen.
func (s *Store) Restore(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("jobstore: restore: %w", err)
	}
	if snap.Schema < 2 {
		return fmt.Errorf("jobstore: restore: snapshot schema %d predates the syncer state (schema 2)", snap.Schema)
	}
	if err := cmp.Or(checkNames(snap.Expected), checkNames(snap.Running),
		checkNames(snap.Quarantined), checkNames(snap.Sync)); err != nil {
		return fmt.Errorf("jobstore: restore: %w", err)
	}
	for k, v := range snap.Expected {
		if v == nil {
			return fmt.Errorf("jobstore: restore: expected entry %q is null", k)
		}
	}
	for k, v := range snap.Running {
		if v == nil || len(v.Config) == 0 {
			return fmt.Errorf("jobstore: restore: running entry %q holds no document", k)
		}
	}
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	for i := range s.stripes {
		s.stripes[i].reset()
	}
	for k, v := range snap.Expected {
		s.stripeFor(k).expected[k] = v
	}
	for k, v := range snap.Running {
		// Serialized snapshots carry neither revisions nor merge caches
		// nor typed configs (all unexported): decode each running entry
		// once, and restamp it with a fresh revision so downstream caches
		// keyed on (job, revision) rebuild rather than serve pre-restore
		// content.
		v.typed = decoded(v.Config).Config
		v.revision = s.revSeq.Add(1)
		s.stripeFor(k).running[k] = v
	}
	for k, v := range snap.Quarantined {
		s.stripeFor(k).quarantined[k] = v
	}
	for k, v := range snap.Sync {
		if v == nil || v.empty() {
			continue
		}
		s.stripeFor(k).sync[k] = v.clone()
	}
	for k := range snap.Expected {
		s.stripeFor(k).noteLocked(k)
	}
	for k := range snap.Running {
		s.stripeFor(k).noteLocked(k)
	}
	for k := range snap.Sync {
		s.stripeFor(k).noteLocked(k)
	}
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
	s.leaseMu.Lock()
	s.leases = nil
	for _, l := range snap.ShardLeases {
		if s.leases == nil {
			s.leases = make(map[int]*ShardLease, len(snap.ShardLeases))
		}
		row := l
		s.leases[row.Shard] = &row
	}
	s.leaseMu.Unlock()
	s.runNames.invalidate()
	// Restore replaced the store wholesale: no cursor issued before this
	// point can be caught up entry-by-entry. Force every journal consumer
	// through its full-resync path, exactly like the revision restamp
	// above forces the spec caches to rebuild.
	s.journal.invalidateAll()
	return nil
}

// checkName refuses a job name longer than config.MaxJobNameLen, the
// bound every spec-feed request is sized by: a longer name ending a walk
// page would make the next walk request too large for the feed listener.
func checkName(name string) error {
	if len(name) > config.MaxJobNameLen {
		return fmt.Errorf("job name of %d bytes is over the %d-byte bound", len(name), config.MaxJobNameLen)
	}
	return nil
}

// checkNames applies checkName to a snapshot section's job names.
func checkNames[V any](section map[string]V) error {
	for name := range section {
		if err := checkName(name); err != nil {
			return err
		}
	}
	return nil
}

// SaveFile atomically persists a snapshot to path (temp file + rename), so
// a crash mid-write never corrupts the stored state.
func (s *Store) SaveFile(path string) error {
	data, err := s.Snapshot()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("jobstore: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobstore: save: %w", err)
	}
	return nil
}

// LoadFile restores the store from a snapshot written by SaveFile. A
// missing file leaves the store empty (first boot) and returns no error.
func (s *Store) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobstore: load: %w", err)
	}
	return s.Restore(data)
}
