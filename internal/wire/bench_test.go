package wire

import "testing"

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

func BenchmarkDecodeDoc(b *testing.B) {
	var e Encoder
	if err := e.AppendDoc(sampleDoc()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(e.Buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(e.Buf)
		if _, err := DecodeDoc(&r); err != nil {
			b.Fatal(err)
		}
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
