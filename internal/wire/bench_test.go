package wire

import (
	"runtime"
	"testing"
)

func BenchmarkEncodeDoc(b *testing.B) {
	doc := sampleDoc()
	var e Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		if err := e.AppendDoc(doc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(e.Buf)))
}

// decodeJobConfigAllocCeiling bounds one DecodeJobConfigBlob of
// sampleDoc: the JobConfig and its four non-empty strings, 5 objects
// measured. The generic decode plus config.JobConfigFromDoc, which the
// feed client ran before, takes 27 for the same blob; so a typed decode
// that starts building documents or boxing values again fails the bench
// smoke.
const decodeJobConfigAllocCeiling = 6

// BenchmarkDecodeJobConfigBlob measures the feed client's per-document
// decode, held to decodeJobConfigAllocCeiling by an in-bench MemStats
// delta over a fixed batch, so that one iteration (-benchtime=1x) arms it
// too.
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
// tick's feed frame: one commit entry with its running doc inlined.
func BenchmarkEncodeDeltaCommit(b *testing.B) {
	doc := sampleDoc()
	var e Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		mark := e.AppendDeltaHeader(uint64(i), 1)
		if err := e.AppendDeltaCommit("ads/metrics", 7, 3, doc); err != nil {
			b.Fatal(err)
		}
		e.EndFrame(mark)
	}
	b.SetBytes(int64(len(e.Buf)))
}

// BenchmarkDecodeDeltaSkip is the subscriber's cost of skipping an
// already-applied entry: iterate without materializing the doc. This is
// the allocation-free path the feed client's revision dedup hits.
func BenchmarkDecodeDeltaSkip(b *testing.B) {
	var e Encoder
	mark := e.AppendDeltaHeader(42, 1)
	if err := e.AppendDeltaCommit("ads/metrics", 7, 3, sampleDoc()); err != nil {
		b.Fatal(err)
	}
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
