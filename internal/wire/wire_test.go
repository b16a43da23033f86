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

// sampleConfig is a config with every field set.
func sampleConfig() *config.JobConfig {
	return &config.JobConfig{
		Name:           "ads/metrics",
		Package:        config.Package{Name: "scuba_tailer", Version: "v7"},
		TaskCount:      8,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2.5, MemoryBytes: 2 << 30, DiskBytes: 1 << 40, NetworkBps: 1e9},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: "ads_metrics_in", Partitions: 64},
		Output:         config.Output{Category: "ads_metrics_out"},
		CheckpointDir:  "/ckpt/$JOB/$TASK",
		Enforcement:    config.EnforceCgroup,
		Priority:       3,
		MaxTaskCount:   32,
		SLOSeconds:     90,
		Stopped:        true,
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
	got, err := decodeDoc(&r, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", r.Remaining())
	}
	// The encoding is canonical: a document that decodes to an equal one
	// re-encodes to the same bytes.
	var back Encoder
	if err := back.AppendDoc(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Buf, e.Buf) {
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
	got, err := decodeDoc(&r, false)
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
		{Subscriber: "ts-west-3", Incarnation: 0x0102030405060708, Cursor: 12345, Max: 64},
		{Subscriber: "ts", Incarnation: ^uint64(0), Cursor: ^uint64(0), Max: 1, Resync: true, ResumeAfter: "jobs/zz"},
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

// TestFeedRequestRoundTripAllocFree: a warm encoder encodes a poll request
// and the decoder reads it back as views into the frame, allocating
// nothing — what a socket subscriber and the listener pay per poll.
func TestFeedRequestRoundTripAllocFree(t *testing.T) {
	req := FeedRequest{Subscriber: "ts-west-3", Incarnation: 0x0102030405060708, Cursor: 12345, Max: 64, Resync: true, ResumeAfter: "jobs/zz"}
	var e Encoder
	roundTrip := func() {
		e.Reset()
		e.AppendFeedRequest(req)
		kind, body, _, err := DecodeFrame(e.Buf)
		if err != nil || kind != FrameFeedRequest {
			t.Fatalf("kind=0x%02x err=%v", kind, err)
		}
		if got, err := DecodeFeedRequest(body); err != nil || got != req {
			t.Fatalf("request round trip: got %+v (%v), want %+v", got, err, req)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("warm feed request round trip allocates %.1f/op, want 0", allocs)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	cfgA := sampleConfig()
	var e Encoder
	mark := e.AppendDeltaHeader(0x8877665544332211, 917, 3)
	e.AppendDeltaCommit("jobs/a", 41, cfgA)
	e.AppendDeltaDrop("jobs/b")
	e.AppendDeltaCommit("jobs/c", 42, nil)
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
	if d.Incarnation != 0x8877665544332211 || d.Next != 917 || d.Count != 3 {
		t.Fatalf("header = (%#x, %d, %d)", d.Incarnation, d.Next, d.Count)
	}

	ent, err := d.Entry()
	if err != nil || string(ent.Name) != "jobs/a" || ent.Drop || ent.Rev != 41 {
		t.Fatalf("entry 0 = %+v err %v", ent, err)
	}
	cfg, err := DecodeJobConfigBlob(ent.Doc)
	if err != nil || !reflect.DeepEqual(cfg, cfgA) {
		t.Fatalf("entry 0 config = %+v (err %v), want %+v", cfg, err, cfgA)
	}
	ent, err = d.Entry()
	if err != nil || string(ent.Name) != "jobs/b" || !ent.Drop || ent.Doc != nil {
		t.Fatalf("entry 1 = %+v err %v", ent, err)
	}
	ent, err = d.Entry()
	if err != nil || string(ent.Name) != "jobs/c" || ent.Rev != 42 {
		t.Fatalf("entry 2 = %+v err %v", ent, err)
	}
	// A running document that is no JobConfig travels as the empty
	// document: a zero config, which runs no tasks.
	if doc, err := DecodeDocBlob(ent.Doc); err != nil || len(doc) != 0 {
		t.Fatalf("entry 2 doc = %v (err %v), want the empty document", doc, err)
	}
	if _, err := d.Entry(); err == nil {
		t.Fatal("over-read did not error")
	}
}

// TestResyncFramesRoundTrip: a resync is carried by deltas alone. The
// redirect is a delta with the redirect flag, no entries, and the cursor
// to adopt as next; a walk page is a plain delta.
func TestResyncFramesRoundTrip(t *testing.T) {
	var e Encoder
	e.AppendRedirect(42, 5150)
	kind, body, rest, err := DecodeFrame(e.Buf)
	if err != nil || kind != FrameDelta || len(rest) != 0 {
		t.Fatalf("kind=0x%02x err=%v", kind, err)
	}
	d, err := DecodeDelta(body)
	if err != nil || !d.Redirect || d.Incarnation != 42 || d.Next != 5150 || d.Count != 0 {
		t.Fatalf("redirect = %+v err %v", d, err)
	}
	if _, err := d.Entry(); err == nil {
		t.Fatal("over-read of a redirect did not error")
	}

	e.Reset()
	mark := e.AppendDeltaHeader(42, 5150, 2)
	e.AppendDeltaCommit("jobs/a", 9, &config.JobConfig{TaskCount: 1})
	e.AppendDeltaDrop("jobs/b")
	e.EndFrame(mark)
	_, body, _, err = DecodeFrame(e.Buf)
	if err != nil {
		t.Fatal(err)
	}
	d, err = DecodeDelta(body)
	if err != nil || d.Redirect || d.Incarnation != 42 || d.Next != 5150 || d.Count != 2 {
		t.Fatalf("page header = %+v err %v", d, err)
	}
	ent, err := d.Entry()
	if err != nil || string(ent.Name) != "jobs/a" || ent.Rev != 9 {
		t.Fatalf("entry 0 = %+v err %v", ent, err)
	}
	if cfg, err := DecodeJobConfigBlob(ent.Doc); err != nil || cfg == nil || cfg.TaskCount != 1 {
		t.Fatalf("entry 0 config = %+v err %v", cfg, err)
	}
	if ent, err := d.Entry(); err != nil || string(ent.Name) != "jobs/b" || !ent.Drop {
		t.Fatalf("entry 1 = %+v err %v", ent, err)
	}
}

// TestDeltaFlagsMalformed: a redirect that carries entries, and a header
// flag no encoder writes, are malformed.
func TestDeltaFlagsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags byte
		count uint64
	}{
		{"redirect with entries", deltaRedirect, 1},
		{"unknown flag", 2, 0},
	} {
		body := append([]byte{tc.flags}, AppendUvarint(nil, 7)...)
		body = AppendUvarint(body, tc.count)
		body = append(body, 1)
		body = AppendString(body, "jobs/a")
		if _, err := DecodeDelta(body); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, err)
		}
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
	if _, err := decodeValue(&r, 0, false); !errors.Is(err, ErrMalformed) {
		t.Fatalf("array bomb: err = %v", err)
	}
	// vDoc with the same trick.
	hostile = append([]byte{vDoc}, AppendUvarint(nil, 1<<40)...)
	r = NewReader(hostile)
	if _, err := decodeValue(&r, 0, false); !errors.Is(err, ErrMalformed) {
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
	if _, err := decodeValue(&r, 0, false); !errors.Is(err, ErrMalformed) {
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
	cfg := sampleConfig()
	var e Encoder
	encode := func() {
		e.Reset()
		mark := e.AppendDeltaHeader(7, 9, 1)
		e.AppendDeltaCommit("ads/metrics", 7, cfg)
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

// TestBlobUnmarshalJSONNumbers: a JSON number that is an integer in int64
// range reads exactly, as vInt, at every depth; every other number reads
// as the float64 encoding/json reads it, as vFloat; and what is no single
// readable document is refused.
func TestBlobUnmarshalJSONNumbers(t *testing.T) {
	cases := []struct {
		lit  string
		want any
	}{
		{"0", int64(0)},
		{"-1", int64(-1)},
		{"9007199254740993", int64(1<<53 + 1)},
		{"9223372036854775807", int64(math.MaxInt64)},
		{"-9223372036854775808", int64(math.MinInt64)},
		{"9223372036854775808", float64(1 << 63)}, // out of range
		{"-0", math.Copysign(0, -1)},
		{"1.0", 1.0},
		{"1e3", 1000.0},
		{"2.5E-1", 0.25},
		{"5e-324", 5e-324}, // subnormal
	}
	for _, c := range cases {
		var b Blob
		data := []byte(`{"n":` + c.lit + `,"a":[` + c.lit + `],"d":{"n":` + c.lit + `}}`)
		if err := b.UnmarshalJSON(data); err != nil {
			t.Fatalf("%s: %v", c.lit, err)
		}
		d, err := b.Doc()
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []any{d["n"], d["a"].([]any)[0], d["d"].(config.Doc)["n"]} {
			if reflect.TypeOf(got) != reflect.TypeOf(c.want) || got != c.want || math.Signbit(toFloat(got)) != math.Signbit(toFloat(c.want)) {
				t.Errorf("%s reads as %T %v, want %T %v", c.lit, got, got, c.want, c.want)
			}
		}
	}
	for _, bad := range []string{`{"n":1e400}`, `{"n":1} x`, `[1]`} {
		var b Blob
		if err := b.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("%s read as %v", bad, b)
		}
	}
}

func toFloat(v any) float64 {
	if n, ok := v.(int64); ok {
		return float64(n)
	}
	return v.(float64)
}
