package jobservice

// Million-task scale tier for the spec feed: the
// Job Store's 125K-job fleet (× 8 tasks = 1M task tier) fanned out to 8
// subscribers polling the server, each decoding every frame it receives.
//
// The two measured shapes are the feed's perf contract:
//
//   - Converged: every subscriber polls at cursor == head and receives
//     the one cached empty frame. The in-bench MemStats bracket enforces
//     ZERO allocations per 8-subscriber round — the frame cache plus
//     warm caller buffers make steady-state fan-out allocation-free.
//   - 1% churn tick: 1,250 jobs rewritten, then every subscriber
//     drains the delta. The in-bench assertion bounds each subscriber's
//     received bytes to O(changed jobs) — a regression that re-encodes
//     or re-ships the fleet (O(125K) docs) fails the benchmark — and
//     checks the frame cache served the fan-out (K subscribers at one
//     cursor cost ~1 encode, not K).
//
// Runs via `make bench-scale`; skips under -short.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/wire"
)

const (
	feedScaleJobs  = 125_000
	feedScaleTasks = 8
	feedScaleSubs  = 8

	// feedChurnPerJobByteCeiling bounds the encoded bytes per changed
	// job in a churn delta (entry framing + the running doc; the real
	// cost is ~230 bytes). 125K unchanged jobs at even one byte each
	// would blow this, so the bound is a strict O(changed) witness.
	feedChurnPerJobByteCeiling = 512
)

func feedScaleDoc(name string, ver string) config.Doc {
	return config.Doc{
		"name":      name,
		"taskCount": int64(feedScaleTasks),
		"package":   config.Doc{"name": "scuba_tailer", "version": ver},
		"taskResources": config.Doc{
			"cpuCores":    0.5,
			"memoryBytes": int64(1 << 29),
		},
		"input": config.Doc{"category": name + "_in", "partitions": int64(16)},
	}
}

func feedScaleName(i int) string { return fmt.Sprintf("job%06d", i) }

// feedScaleFleet builds the 1M-task store and its feed server.
func feedScaleFleet(b *testing.B) (*jobstore.Store, *SpecFeedServer) {
	b.Helper()
	store := jobstore.New()
	for i := 0; i < feedScaleJobs; i++ {
		name := feedScaleName(i)
		if err := store.CommitRunning(name, committed(feedScaleDoc(name, "v1")), 1); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC() // drop setup garbage before any timed section
	return store, NewSpecFeed(store)
}

// feedPoller is a raw wire-level subscriber: it drains delta frames and
// advances its cursor without mirroring (8 mirror stores of a 1M-task
// fleet would measure mirror memory, not feed cost; byte-identity of a
// full mirror is covered by the taskservice churn-matrix test and the
// chaos soak).
type feedPoller struct {
	feed   *SpecFeedServer
	id     string
	cursor uint64
	buf    []byte
}

// drain polls until caught up, returning frames seen and bytes received.
func (p *feedPoller) drain(b *testing.B) (polls int, bytes int64) {
	for {
		frame, err := p.feed.PollFeed(wire.FeedRequest{Subscriber: p.id, Cursor: p.cursor}, p.buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		p.buf = frame
		polls++
		bytes += int64(len(frame))
		kind, body, _, err := wire.DecodeFrame(frame)
		if err != nil || kind != wire.FrameDelta {
			b.Fatalf("kind=0x%02x err=%v", kind, err)
		}
		d, err := wire.DecodeDelta(body)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < d.Count; i++ {
			if _, err := d.Entry(); err != nil {
				b.Fatal(err)
			}
		}
		p.cursor = d.Next
		if d.Count == 0 {
			return polls, bytes
		}
	}
}

func feedScaleSubscribers(b *testing.B, store *jobstore.Store, feed *SpecFeedServer) []*feedPoller {
	b.Helper()
	subs := make([]*feedPoller, feedScaleSubs)
	head := store.JournalHead()
	for i := range subs {
		subs[i] = &feedPoller{
			feed:   feed,
			id:     fmt.Sprintf("ts-%d", i),
			cursor: head, // adopted post-resync position; the walk itself is not the measured op
			buf:    make([]byte, 0, 1<<20),
		}
		subs[i].drain(b) // warm buffers and the frame cache
	}
	return subs
}

// BenchmarkScaleSpecFeedConverged: 8 subscribers at the journal head
// each poll the one cached empty frame and decode it; the whole round,
// request through decoded reply, allocates nothing.
func BenchmarkScaleSpecFeedConverged(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	store, feed := feedScaleFleet(b)
	subs := feedScaleSubscribers(b, store, feed)
	var m0, m1 runtime.MemStats
	var spent uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		for _, p := range subs {
			if polls, _ := p.drain(b); polls != 1 {
				b.Fatalf("converged subscriber needed %d polls", polls)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		spent += m1.Mallocs - m0.Mallocs
		b.StartTimer()
	}
	b.StopTimer()
	if spent != 0 {
		b.Fatalf("converged feed round (8 subscribers) allocated %d objects over %d rounds, want 0", spent, b.N)
	}
}

// BenchmarkScaleSpecFeedChurn1pct: 1 % of the fleet is rewritten, then
// 8 subscribers drain it. Each receives bytes in proportion to the
// changed jobs (feedChurnPerJobByteCeiling), and the frame cache serves
// the fan-out: hits at least match misses, and misses stay at a few a
// tick.
func BenchmarkScaleSpecFeedChurn1pct(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	const churn = feedScaleJobs / 100 // 1,250 jobs per tick
	store, feed := feedScaleFleet(b)
	subs := feedScaleSubscribers(b, store, feed)
	stats0 := feed.Stats()
	var maxSubBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := (i * churn) % feedScaleJobs
		for j := 0; j < churn; j++ {
			name := feedScaleName((base + j) % feedScaleJobs)
			if err := store.CommitRunning(name, committed(feedScaleDoc(name, fmt.Sprintf("v%d.%d", i+2, j))), int64(i+2)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for _, p := range subs {
			_, bytes := p.drain(b)
			if bytes > maxSubBytes {
				maxSubBytes = bytes
			}
		}
	}
	b.StopTimer()
	// O(changed) payload: the worst subscriber tick must fit the
	// per-changed-job byte budget. An O(fleet) regression ships ~100×.
	if limit := int64(churn * feedChurnPerJobByteCeiling); maxSubBytes > limit {
		b.Fatalf("churn tick shipped %d bytes to one subscriber, O(changed) limit %d", maxSubBytes, limit)
	}
	b.ReportMetric(float64(maxSubBytes), "bytes/tick")
	// Fan-out sharing: 8 subscribers at one cursor must not cost 8
	// encodes. Per tick the cache sees ~2 misses (the two delta windows
	// of a 1,250-entry churn at batch 1024) plus the converged frame;
	// everything else must be hits.
	ds := feed.Stats()
	misses := ds.FrameMisses - stats0.FrameMisses
	hits := ds.FrameHits - stats0.FrameHits
	if misses > int64(b.N)*4 {
		b.Fatalf("frame cache missed %d times over %d ticks — fan-out is re-encoding", misses, b.N)
	}
	if hits < misses {
		b.Fatalf("frame cache hits %d < misses %d — subscribers are not sharing encodes", hits, misses)
	}
}
