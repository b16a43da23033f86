package wire

import (
	"runtime"
	"testing"
)

// decodeJobConfigAllocCeiling bounds one DecodeJobConfigBlob of
// sampleDoc: the JobConfig alone, whose strings view the blob, 1 object
// measured (5 while each string was copied). The generic decode plus
// config.JobConfigFromDoc takes 27 for the same blob; so a typed decode
// that starts building documents or boxing values again fails the bench
// smoke. The ceiling is the measured count plus a third, rounded up.
const decodeJobConfigAllocCeiling = 2

// BenchmarkDecodeJobConfigBlob measures the typed decode of a document,
// held to decodeJobConfigAllocCeiling by an in-bench MemStats delta over a
// fixed batch, so that one iteration (-benchtime=1x) arms it too.
func BenchmarkDecodeJobConfigBlob(b *testing.B) {
	var e Encoder
	if err := e.AppendDoc(sampleDoc()); err != nil {
		b.Fatal(err)
	}
	decode := func() {
		if cfg, err := DecodeJobConfigBlob(e.Buf); err != nil || cfg == nil {
			b.Fatalf("decode = %v, %v", cfg, err)
		}
	}
	b.SetBytes(int64(len(e.Buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
	b.StopTimer()
	const batch = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < batch; i++ {
		decode()
	}
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / batch; per > decodeJobConfigAllocCeiling {
		b.Fatalf("DecodeJobConfigBlob allocates %.1f objects/op, ceiling %d", per, decodeJobConfigAllocCeiling)
	}
}

// BenchmarkEncodeDeltaCommit is the per-changed-job cost of a churn
// tick's feed frame: one commit entry with its running config inlined
// (TestEncoderReuseNoGrowth holds it to zero allocations).
func BenchmarkEncodeDeltaCommit(b *testing.B) {
	cfg := sampleConfig()
	var e Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		mark := e.AppendDeltaHeader(7, uint64(i), 1)
		e.AppendDeltaCommit("ads/metrics", 7, cfg)
		e.EndFrame(mark)
	}
	b.SetBytes(int64(len(e.Buf)))
}

// BenchmarkDecodeDeltaSkip is the subscriber's cost of skipping an
// already-applied entry: iterate without materializing the doc. This is
// the allocation-free path the feed client's revision dedup hits.
func BenchmarkDecodeDeltaSkip(b *testing.B) {
	var e Encoder
	mark := e.AppendDeltaHeader(7, 42, 1)
	e.AppendDeltaCommit("ads/metrics", 7, sampleConfig())
	e.EndFrame(mark)
	_, body, _, err := DecodeFrame(e.Buf)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(e.Buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := DecodeDelta(body)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Entry(); err != nil {
			b.Fatal(err)
		}
	}
}
