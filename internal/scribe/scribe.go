// Package scribe models Facebook's Scribe, the persistent distributed
// message bus through which Turbine jobs communicate (paper §II).
//
// Turbine's data model depends on three Scribe properties, all reproduced
// here:
//
//   - data is partitioned into categories (cf. Kafka topics), each split
//     into partitions that tasks divide disjointly among themselves;
//   - consumers track their own per-partition offsets (checkpoints), so a
//     failed task recovers independently by resuming from its checkpoint;
//   - backlog is observable: total_bytes_lagged in the lag equation (1) is
//     bytes written minus bytes read for the partitions a job owns.
//
// Because the reproduction drives terabytes of simulated traffic, the bus
// does byte-level accounting rather than storing message payloads: each
// partition tracks cumulative appended bytes and message counts, and
// readers hold byte offsets. That is exactly the information Turbine's
// control plane observes — it never looks at message contents.
//
// The bus therefore has no per-partition read call. A consumer takes one
// snapshot of its partitions' end offsets per interval (Ends: one lock,
// one category lookup, however many partitions) and does the rest —
// backlog, how much to drain, its new offsets — with arithmetic on its
// own offsets; a job-level observer reads TotalWritten. The simulated
// minute costs the bus one read per task and one per job, not a lock
// round trip per partition.
package scribe

import (
	"fmt"
	"sort"
	"sync"
)

// Bus is an in-memory Scribe: a set of named categories. Safe for
// concurrent use.
type Bus struct {
	mu         sync.RWMutex
	categories map[string]*category
}

type category struct {
	partitions []partition
}

type partition struct {
	bytes    int64 // cumulative bytes appended
	messages int64 // cumulative messages appended
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{categories: make(map[string]*category)}
}

// CreateCategory registers a category with the given partition count.
// Creating an existing category with the same partition count is a no-op;
// with a different count it is an error (repartitioning is not a Scribe
// operation — Turbine changes the task→partition mapping instead).
func (b *Bus) CreateCategory(name string, partitions int) error {
	if partitions <= 0 {
		return fmt.Errorf("scribe: category %q needs a positive partition count, got %d", name, partitions)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c, ok := b.categories[name]; ok {
		if len(c.partitions) != partitions {
			return fmt.Errorf("scribe: category %q already exists with %d partitions, not %d", name, len(c.partitions), partitions)
		}
		return nil
	}
	b.categories[name] = &category{partitions: make([]partition, partitions)}
	return nil
}

// Partitions returns the partition count of a category, or 0 if absent.
func (b *Bus) Partitions(name string) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c := b.categories[name]
	if c == nil {
		return 0
	}
	return len(c.partitions)
}

// Categories returns all category names, sorted.
func (b *Bus) Categories() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.categories))
	for name := range b.categories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Append adds bytes/messages to one partition of a category.
func (b *Bus) Append(name string, part int, bytes, messages int64) error {
	if bytes < 0 || messages < 0 {
		return fmt.Errorf("scribe: negative append to %q[%d]", name, part)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.categories[name]
	if c == nil {
		return fmt.Errorf("scribe: unknown category %q", name)
	}
	if part < 0 || part >= len(c.partitions) {
		return fmt.Errorf("scribe: category %q has %d partitions, no partition %d", name, len(c.partitions), part)
	}
	c.partitions[part].bytes += bytes
	c.partitions[part].messages += messages
	return nil
}

// AppendEven distributes totalBytes/totalMessages evenly across all
// partitions of a category, assigning remainders to the lowest partitions.
func (b *Bus) AppendEven(name string, totalBytes, totalMessages int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.categories[name]
	if c == nil {
		return fmt.Errorf("scribe: unknown category %q", name)
	}
	n := int64(len(c.partitions))
	bytes, extraB := totalBytes/n, totalBytes%n
	messages, extraM := totalMessages/n, totalMessages%n
	for i := range c.partitions {
		p := &c.partitions[i]
		p.bytes += bytes
		p.messages += messages
		if int64(i) < extraB {
			p.bytes++
		}
		if int64(i) < extraM {
			p.messages++
		}
	}
	return nil
}

// AppendWeighted distributes totalBytes across partitions proportionally to
// weights (len(weights) must equal the partition count). It is used to
// simulate imbalanced input, one of the misbehavior symptoms the Auto
// Scaler detects (paper §V-A). Messages are derived using avgMsgSize bytes
// per message (0 means no message accounting).
func (b *Bus) AppendWeighted(name string, totalBytes int64, weights []float64, avgMsgSize int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.categories[name]
	if c == nil {
		return fmt.Errorf("scribe: unknown category %q", name)
	}
	if len(weights) != len(c.partitions) {
		return fmt.Errorf("scribe: %d weights for %d partitions of %q", len(weights), len(c.partitions), name)
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			return fmt.Errorf("scribe: negative weight for %q", name)
		}
		sum += w
	}
	if sum == 0 {
		return fmt.Errorf("scribe: zero total weight for %q", name)
	}
	for i, w := range weights {
		bts := int64(float64(totalBytes) * w / sum)
		c.partitions[i].bytes += bts
		if avgMsgSize > 0 {
			c.partitions[i].messages += bts / avgMsgSize
		}
	}
	return nil
}

// Written returns cumulative (bytes, messages) appended to one partition.
func (b *Bus) Written(name string, part int) (bytes, messages int64, err error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c := b.categories[name]
	if c == nil {
		return 0, 0, fmt.Errorf("scribe: unknown category %q", name)
	}
	if part < 0 || part >= len(c.partitions) {
		return 0, 0, fmt.Errorf("scribe: category %q has no partition %d", name, part)
	}
	p := c.partitions[part]
	return p.bytes, p.messages, nil
}

// TotalWritten returns cumulative bytes appended across all partitions.
func (b *Bus) TotalWritten(name string) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c := b.categories[name]
	if c == nil {
		return 0
	}
	var total int64
	for _, p := range c.partitions {
		total += p.bytes
	}
	return total
}

// Ends snapshots the end offsets (cumulative bytes appended) of the listed
// partitions of one category under a single lock: into[i] receives the end
// of parts[i], so into must be at least as long as parts. An unknown
// category or an out-of-range partition reads as end 0 — nothing was ever
// written there, so a reader has no backlog and nothing to consume.
//
// This is a consumer's one bus read per interval: from the snapshot and
// its own offsets it derives backlog (end − offset, floored at zero: a
// reader ahead of the log, e.g. after a checkpoint from a deleted-and-
// recreated category, has none) and how far it may advance (never past
// the end), with every partition seen at the same instant.
func (b *Bus) Ends(name string, parts []int, into []int64) {
	into = into[:len(parts)]
	b.mu.RLock()
	defer b.mu.RUnlock()
	var partitions []partition // none, if there is no such category
	if c := b.categories[name]; c != nil {
		partitions = c.partitions
	}
	for i, p := range parts {
		var end int64
		if p >= 0 && p < len(partitions) {
			end = partitions[p].bytes
		}
		into[i] = end
	}
}

// AvgMessageSize returns the average message size in one partition, or 0 if
// no messages were recorded. Memory use of a Scuba tailer is proportional
// to this (paper §VI).
func (b *Bus) AvgMessageSize(name string, part int) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	c := b.categories[name]
	if c == nil || part < 0 || part >= len(c.partitions) {
		return 0
	}
	p := c.partitions[part]
	if p.messages == 0 {
		return 0
	}
	return p.bytes / p.messages
}

// DeleteCategory removes a category and its accounting.
func (b *Bus) DeleteCategory(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.categories, name)
}
