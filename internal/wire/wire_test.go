package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
)

func sampleDoc() config.Doc {
	return config.Doc{
		"name":      "ads/metrics",
		"taskCount": int64(8),
		"package":   config.Doc{"name": "scuba_tailer", "version": "v7"},
		"taskResources": config.Doc{
			"cpuCores":    2.5,
			"memoryBytes": int64(2 << 30),
		},
		"input": config.Doc{
			"category":   "ads_metrics_in",
			"partitions": int64(64),
		},
		"flags":   []any{true, false, nil, "x", int64(-3), 1.25},
		"paused":  false,
		"comment": nil,
	}
}

func TestVarintRoundTrip(t *testing.T) {
	var e Encoder
	uvals := []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64}
	svals := []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	for _, u := range uvals {
		e.Buf = AppendUvarint(e.Buf, u)
	}
	for _, v := range svals {
		e.Buf = AppendVarint(e.Buf, v)
	}
	e.Buf = AppendFloat(e.Buf, 3.75)
	e.Buf = AppendString(e.Buf, "héllo")
	r := NewReader(e.Buf)
	for _, u := range uvals {
		if got := r.Uvarint(); got != u {
			t.Fatalf("uvarint = %d, want %d", got, u)
		}
	}
	for _, v := range svals {
		if got := r.Varint(); got != v {
			t.Fatalf("varint = %d, want %d", got, v)
		}
	}
	if got := r.Float(); got != 3.75 {
		t.Fatalf("float = %v", got)
	}
	if got := r.String(); got != "héllo" {
		t.Fatalf("string = %q", got)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestDocRoundTrip(t *testing.T) {
	doc := sampleDoc()
	var e Encoder
	if err := e.AppendDoc(doc); err != nil {
		t.Fatal(err)
	}
	r := NewReader(e.Buf)
	got, err := decodeDoc(&r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", r.Remaining())
	}
	if !config.Equal(doc, got) {
		t.Fatalf("doc round trip mismatch:\n in: %v\nout: %v", doc, got)
	}
}

// TestDocEncodeDeterministic: the frame cache's soundness rests on two
// encodes of one document being the same bytes regardless of map
// iteration order.
func TestDocEncodeDeterministic(t *testing.T) {
	doc := sampleDoc()
	var first []byte
	var e Encoder
	for i := 0; i < 32; i++ {
		e.Reset()
		if err := e.AppendDoc(doc); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = append([]byte(nil), e.Buf...)
		} else if !bytes.Equal(first, e.Buf) {
			t.Fatalf("encode %d produced different bytes", i)
		}
	}
}

// TestDocIntWidthNormalizes: int and int32 travel as vInt and decode as
// int64 — the same normalization encoding/json applies, so config.Equal
// holds across the trip.
func TestDocIntWidthNormalizes(t *testing.T) {
	doc := config.Doc{"a": 7, "b": int32(-9), "c": int64(11)}
	var e Encoder
	if err := e.AppendDoc(doc); err != nil {
		t.Fatal(err)
	}
	r := NewReader(e.Buf)
	got, err := decodeDoc(&r)
	if err != nil {
		t.Fatal(err)
	}
	want := config.Doc{"a": int64(7), "b": int64(-9), "c": int64(11)}
	if !reflect.DeepEqual(config.Doc(got), want) {
		t.Fatalf("got %#v, want %#v", got, want)
	}
}

func TestDocUnsupportedValue(t *testing.T) {
	var e Encoder
	err := e.AppendDoc(config.Doc{"ch": make(chan int)})
	if err == nil || !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestFeedRequestRoundTrip(t *testing.T) {
	reqs := []FeedRequest{
		{},
		{Subscriber: "ts-west-3", Cursor: 12345, Max: 64},
		{Subscriber: "ts", Cursor: ^uint64(0), Max: 1, Resync: true, ResumeAfter: "jobs/zz"},
	}
	var e Encoder
	for _, req := range reqs {
		e.Reset()
		e.AppendFeedRequest(req)
		kind, body, rest, err := DecodeFrame(e.Buf)
		if err != nil {
			t.Fatal(err)
		}
		if kind != FrameFeedRequest || len(rest) != 0 {
			t.Fatalf("kind=0x%02x rest=%d", kind, len(rest))
		}
		got, err := DecodeFeedRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if got != req {
			t.Fatalf("request round trip: got %+v, want %+v", got, req)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	docA := sampleDoc()
	var e Encoder
	mark := e.AppendDeltaHeader(917, 3)
	if err := e.AppendDeltaCommit("jobs/a", 41, 7, docA); err != nil {
		t.Fatal(err)
	}
	e.AppendDeltaDrop("jobs/b")
	if err := e.AppendDeltaCommit("jobs/c", 42, 1, config.Doc{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	e.EndFrame(mark)

	kind, body, rest, err := DecodeFrame(e.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameDelta || len(rest) != 0 {
		t.Fatalf("kind=0x%02x rest=%d", kind, len(rest))
	}
	d, err := DecodeDelta(body)
	if err != nil {
		t.Fatal(err)
	}
	if d.Next != 917 || d.Count != 3 {
		t.Fatalf("header = (%d, %d)", d.Next, d.Count)
	}

	ent, err := d.Entry()
	if err != nil || string(ent.Name) != "jobs/a" || ent.Drop || ent.Rev != 41 || ent.Version != 7 {
		t.Fatalf("entry 0 = %+v err %v", ent, err)
	}
	doc, err := DecodeDocBlob(ent.Doc)
	if err != nil || !config.Equal(doc, docA) {
		t.Fatalf("entry 0 doc mismatch (err %v)", err)
	}
	ent, err = d.Entry()
	if err != nil || string(ent.Name) != "jobs/b" || !ent.Drop || ent.Doc != nil {
		t.Fatalf("entry 1 = %+v err %v", ent, err)
	}
	ent, err = d.Entry()
	if err != nil || string(ent.Name) != "jobs/c" || ent.Rev != 42 {
		t.Fatalf("entry 2 = %+v err %v", ent, err)
	}
	if _, err := d.Entry(); err == nil {
		t.Fatal("over-read did not error")
	}
}

func TestResyncFramesRoundTrip(t *testing.T) {
	var e Encoder
	e.AppendResyncNeeded(5150)
	kind, body, rest, err := DecodeFrame(e.Buf)
	if err != nil || kind != FrameResyncNeeded || len(rest) != 0 {
		t.Fatalf("kind=0x%02x err=%v", kind, err)
	}
	next, err := DecodeResyncNeeded(body)
	if err != nil || next != 5150 {
		t.Fatalf("next=%d err=%v", next, err)
	}

	e.Reset()
	mark, countMark := e.AppendResyncChunkHeader(true)
	if err := e.AppendChunkItem("jobs/a", 9, 2, config.Doc{"x": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendChunkItem("jobs/b", 10, 3, config.Doc{"y": int64(2)}); err != nil {
		t.Fatal(err)
	}
	e.PatchChunkCount(countMark, 2)
	e.EndFrame(mark)

	kind, body, _, err = DecodeFrame(e.Buf)
	if err != nil || kind != FrameResyncChunk {
		t.Fatalf("kind=0x%02x err=%v", kind, err)
	}
	c, err := DecodeResyncChunk(body)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Done || c.Count != 2 {
		t.Fatalf("chunk header = %+v", c)
	}
	it, err := c.Item()
	if err != nil || string(it.Name) != "jobs/a" || it.Rev != 9 || it.Version != 2 {
		t.Fatalf("item 0 = %+v err %v", it, err)
	}
	it, err = c.Item()
	if err != nil || string(it.Name) != "jobs/b" {
		t.Fatalf("item 1 = %+v err %v", it, err)
	}
	if _, err := c.Item(); err == nil {
		t.Fatal("over-read did not error")
	}
}

// TestChunkCountPatchedBelowEmitted: the server skips entries that
// vanish between its name snapshot and the per-job read; the patched
// count must rule, not the planned one.
func TestChunkCountPatchedBelowEmitted(t *testing.T) {
	var e Encoder
	mark, countMark := e.AppendResyncChunkHeader(false)
	if err := e.AppendChunkItem("jobs/only", 1, 1, config.Doc{}); err != nil {
		t.Fatal(err)
	}
	e.PatchChunkCount(countMark, 1) // planned 3, two vanished
	e.EndFrame(mark)
	_, body, _, err := DecodeFrame(e.Buf)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeResyncChunk(body)
	if err != nil {
		t.Fatal(err)
	}
	if c.Done || c.Count != 1 {
		t.Fatalf("chunk header = %+v", c)
	}
	if it, err := c.Item(); err != nil || string(it.Name) != "jobs/only" {
		t.Fatalf("item = %+v err %v", it, err)
	}
}

func TestDecodeFrameMalformed(t *testing.T) {
	cases := [][]byte{
		nil,                           // shorter than prefix
		{1, 2, 3},                     // shorter than prefix
		{0, 0, 0, 0},                  // empty body
		{9, 0, 0, 0, 0x05},            // length exceeds available
		{255, 255, 255, 255, 1, 2, 3}, // huge length
	}
	for i, b := range cases {
		if _, _, _, err := DecodeFrame(b); !errors.Is(err, ErrMalformed) {
			t.Fatalf("case %d: err = %v, want ErrMalformed", i, err)
		}
	}
}

// TestHostileCountsRejected: counts larger than the remaining bytes are
// rejected before any allocation sized by them.
func TestHostileCountsRejected(t *testing.T) {
	// vArray claiming 2^40 elements in a 3-byte buffer.
	hostile := append([]byte{vArray}, AppendUvarint(nil, 1<<40)...)
	r := NewReader(hostile)
	if _, err := DecodeValue(&r); !errors.Is(err, ErrMalformed) {
		t.Fatalf("array bomb: err = %v", err)
	}
	// vDoc with the same trick.
	hostile = append([]byte{vDoc}, AppendUvarint(nil, 1<<40)...)
	r = NewReader(hostile)
	if _, err := DecodeValue(&r); !errors.Is(err, ErrMalformed) {
		t.Fatalf("doc bomb: err = %v", err)
	}
}

// TestDeepNestingRejected: nesting past maxDepth errors instead of
// exhausting the stack.
func TestDeepNestingRejected(t *testing.T) {
	var b []byte
	for i := 0; i < maxDepth+8; i++ {
		b = append(b, vArray)
		b = AppendUvarint(b, 1)
	}
	b = append(b, vNil)
	r := NewReader(b)
	if _, err := DecodeValue(&r); !errors.Is(err, ErrMalformed) {
		t.Fatalf("deep nesting: err = %v", err)
	}
}

// TestReaderViewsAlias: Bytes and StringView return views into the
// frame, not copies — the zero-copy contract the feed client relies on.
func TestReaderViewsAlias(t *testing.T) {
	buf := AppendString(nil, "alias-me")
	r := NewReader(buf)
	v := r.Bytes()
	if &v[0] != &buf[len(buf)-len(v)] {
		t.Fatal("Bytes copied instead of aliasing")
	}
	buf[len(buf)-1] = 'E'
	if string(v) != "alias-mE" {
		t.Fatal("view did not observe buffer mutation")
	}
}

func TestEncoderReuseNoGrowth(t *testing.T) {
	doc := sampleDoc()
	var e Encoder
	encode := func() {
		e.Reset()
		mark := e.AppendDeltaHeader(9, 1)
		if err := e.AppendDeltaCommit("ads/metrics", 7, 3, doc); err != nil {
			t.Fatal(err)
		}
		e.EndFrame(mark)
	}
	encode()
	warmCap := cap(e.Buf)
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("warm delta encode allocates %.1f/op, want 0", allocs)
	}
	if cap(e.Buf) != warmCap {
		t.Fatalf("buffer regrew: %d -> %d", warmCap, cap(e.Buf))
	}
}
