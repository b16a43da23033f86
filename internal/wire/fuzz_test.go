package wire

import (
	"bytes"
	"testing"

	"repro/internal/config"
)

// FuzzFrameDecode holds the hostile-input line: arbitrary bytes through
// the frame splitter and every body decoder must error or succeed, never
// panic, and never allocate proportionally to a claimed (unbacked)
// length.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0x05}) // well-framed, of a kind no decoder takes
	var e Encoder
	e.AppendFeedRequest(FeedRequest{Subscriber: "ts", Cursor: 7, Max: 3})
	f.Add(append([]byte(nil), e.Buf...))
	e.Reset()
	mark := e.AppendDeltaHeader(7, 9, 2)
	e.AppendDeltaCommit("jobs/a", 1, sampleConfig())
	e.AppendDeltaDrop("jobs/b")
	e.EndFrame(mark)
	f.Add(append([]byte(nil), e.Buf...))
	e.Reset()
	mark = e.AppendDeltaHeader(7, 9, 1)
	e.AppendDeltaCommit("jobs/a", 1, &config.JobConfig{Name: "k"})
	e.EndFrame(mark)
	f.Add(append([]byte(nil), e.Buf...))
	e.Reset()
	e.AppendRedirect(7, 123)
	f.Add(append([]byte(nil), e.Buf...))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for range [4]struct{}{} { // a few frames per input at most
			kind, body, next, err := DecodeFrame(rest)
			if err != nil {
				return
			}
			switch kind {
			case FrameFeedRequest:
				_, _ = DecodeFeedRequest(body)
			case FrameDelta:
				d, err := DecodeDelta(body)
				if err != nil {
					return
				}
				if d.Redirect && d.Count != 0 {
					t.Fatalf("redirect decoded with %d entries", d.Count)
				}
				for i := 0; i < d.Count; i++ {
					ent, err := d.Entry()
					if err != nil {
						break
					}
					if ent.Doc != nil {
						_, _ = DecodeDocBlob(ent.Doc)
					}
				}
			}
			rest = next
		}
	})
}

// FuzzDocRoundTrip: any byte string that decodes as a document value
// must re-encode and re-decode to the same value — the codec is a
// bijection on its own output.
func FuzzDocRoundTrip(f *testing.F) {
	var e Encoder
	_ = e.AppendDoc(sampleDoc())
	f.Add(append([]byte(nil), e.Buf...))
	e.Reset()
	_ = e.AppendValue([]any{int64(1), "two", 3.0, nil, true})
	f.Add(append([]byte(nil), e.Buf...))
	f.Add([]byte{vInt, 0x80})
	f.Add([]byte{vArray, 2, vNil, vTrue})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		v, err := decodeValue(&r, 0, false)
		if err != nil {
			return
		}
		var enc Encoder
		if err := enc.AppendValue(v); err != nil {
			t.Fatalf("re-encode of decoded value failed: %v", err)
		}
		r2 := NewReader(enc.Buf)
		v2, err := decodeValue(&r2, 0, false)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if r2.Remaining() != 0 {
			t.Fatalf("%d trailing bytes after re-decode", r2.Remaining())
		}
		// Canonical form is a fixed point: re-encoding v2 reproduces
		// enc.Buf bit for bit. Byte equality is the right equality here —
		// reflect.DeepEqual would false-negative on NaN payloads, which
		// the codec carries faithfully.
		var enc2 Encoder
		if err := enc2.AppendValue(v2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Buf, enc2.Buf) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
