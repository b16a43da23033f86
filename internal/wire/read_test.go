package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// frameOf encodes one length-prefixed frame of the given kind and body.
func frameOf(kind byte, body []byte) []byte {
	var e Encoder
	m := e.BeginFrame(kind)
	e.Buf = append(e.Buf, body...)
	e.EndFrame(m)
	return e.Buf
}

// TestReadFrameOneByteReads reads three frames off a reader that yields
// one byte per Read: each comes back whole, prefix included, and the
// stream then ends cleanly.
func TestReadFrameOneByteReads(t *testing.T) {
	frames := [][]byte{
		frameOf(0x01, []byte("alpha")),
		frameOf(0x02, nil),
		frameOf(0x03, bytes.Repeat([]byte{0xAB}, 300)),
	}
	r := iotest.OneByteReader(bytes.NewReader(bytes.Join(frames, nil)))
	for i, want := range frames {
		got, err := ReadFrame(r, nil, MaxFrameBody)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %x, %v; want %x", i, got, err, want)
		}
	}
	if _, err := ReadFrame(r, nil, MaxFrameBody); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReadFrameConcatenated reads back-to-back frames, each appended to
// the same buffer, and walks the buffer with DecodeFrame.
func TestReadFrameConcatenated(t *testing.T) {
	var all []byte
	for i := byte(1); i <= 4; i++ {
		all = append(all, frameOf(i, bytes.Repeat([]byte{i}, int(i)*7))...)
	}
	r := bytes.NewReader(all)
	var buf []byte
	for i := 0; i < 4; i++ {
		var err error
		if buf, err = ReadFrame(r, buf, MaxFrameBody); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if !bytes.Equal(buf, all) {
		t.Fatal("appended frames differ from the stream")
	}
	for i := byte(1); len(buf) > 0; i++ {
		kind, body, rest, err := DecodeFrame(buf)
		if err != nil || kind != i || len(body) != int(i)*7 {
			t.Fatalf("frame %d: kind %#x, %d bytes, %v", i, kind, len(body), err)
		}
		buf = rest
	}
}

// TestReadFrameLengths: a zero length and one past the bound are
// malformed and leave the caller's buffer as it was; a length exactly at
// the bound is read.
func TestReadFrameLengths(t *testing.T) {
	const bound = 16
	cases := []struct {
		name  string
		input []byte
		ok    bool
	}{
		{"zero", []byte{0, 0, 0, 0, 0x01}, false},
		{"at-bound", frameOf(0x01, bytes.Repeat([]byte{1}, bound-1)), true},
		{"bound-plus-one", frameOf(0x01, bytes.Repeat([]byte{1}, bound)), false},
		{"huge", []byte{0xff, 0xff, 0xff, 0xff, 0x01}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := []byte{0xEE}
			got, err := ReadFrame(bytes.NewReader(tc.input), buf, bound)
			if tc.ok {
				if err != nil || !bytes.Equal(got[1:], tc.input) {
					t.Fatalf("%x, %v; want the frame", got, err)
				}
				return
			}
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
			if !bytes.Equal(got, []byte{0xEE}) {
				t.Fatalf("buffer changed on error: %x", got)
			}
		})
	}
}

// TestReadFrameEOF: a close before any prefix byte is io.EOF; a close
// mid-prefix or mid-body is io.ErrUnexpectedEOF, and no torn frame is
// returned.
func TestReadFrameEOF(t *testing.T) {
	f := frameOf(0x07, []byte("never-delivered"))
	cases := []struct {
		name  string
		input []byte
		want  error
	}{
		{"clean", nil, io.EOF},
		{"mid-prefix", f[:2], io.ErrUnexpectedEOF},
		{"mid-body", f[:len(f)-2], io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadFrame(bytes.NewReader(tc.input), nil, MaxFrameBody)
			if err != tc.want || len(got) != 0 {
				t.Fatalf("%d bytes, %v; want none, %v", len(got), err, tc.want)
			}
		})
	}
}

// TestReadFrameClaimOutrunsBytes: a peer that claims a 64 MiB body and
// sends 10 bytes costs about one read-ahead step, not the claim.
func TestReadFrameClaimOutrunsBytes(t *testing.T) {
	input := append([]byte{0, 0, 0, 4}, bytes.Repeat([]byte{1}, 10)...) // 1<<26 = MaxFrameBody
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(input), nil, MaxFrameBody)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
		t.Fatalf("a 10-byte body behind a 64 MiB claim allocated %d bytes", grew)
	}
}

// TestReadFrameWarmBufferNoAlloc: a buffer with room for the frame, as
// each end of the feed socket reuses across polls, is read into without
// allocating.
func TestReadFrameWarmBufferNoAlloc(t *testing.T) {
	f := frameOf(0x01, bytes.Repeat([]byte{1}, 300))
	r := bytes.NewReader(f)
	buf := make([]byte, 0, len(f))
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(f)
		if _, err := ReadFrame(r, buf[:0], MaxFrameBody); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per read into a warm buffer, want 0", allocs)
	}
}

// refFrames is the oracle: the frames a sequential walk of the complete
// input yields under ReadFrame's rules (u32 LE length, then body; zero
// or over-bound lengths are terminal errors), independent of how the
// input is chunked.
func refFrames(data []byte, max int) (frames [][]byte, rest int, hostile bool) {
	rem := data
	for len(rem) >= 4 {
		n := uint32(rem[0]) | uint32(rem[1])<<8 | uint32(rem[2])<<16 | uint32(rem[3])<<24
		if n == 0 || uint64(n) > uint64(max) {
			return frames, len(rem), true
		}
		if uint64(len(rem)-4) < uint64(n) {
			break
		}
		frames = append(frames, rem[:4+n])
		rem = rem[4+n:]
	}
	return frames, len(rem), false
}

// chunkReader delivers data in reads no longer than next chooses.
type chunkReader struct {
	data []byte
	next func() int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.data[:min(len(c.data), c.next())])
	c.data = c.data[n:]
	return n, nil
}

// FuzzReadFrame pins ReadFrame's guarantees against arbitrary inputs
// and arbitrary read sizes:
//
//   - Never a torn frame: every frame returned is byte-identical to the
//     oracle's walk of the whole input, whatever the read sizes.
//   - Never a panic or an allocation bomb: hostile lengths (zero or over
//     the bound) fail with ErrMalformed exactly where the oracle says the
//     stream dies, and the stream's end is io.EOF between frames and
//     io.ErrUnexpectedEOF inside one.
//   - On any error the caller's buffer comes back unchanged.
func FuzzReadFrame(f *testing.F) {
	whole := func(kind byte, body []byte) []byte {
		n := 1 + len(body)
		out := []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24), kind}
		return append(out, body...)
	}
	f.Add([]byte{}, uint64(0))
	f.Add(whole(0x01, []byte("delta")), uint64(1))
	f.Add(append(whole(0x01, []byte("a")), whole(0x05, bytes.Repeat([]byte{7}, 40))...), uint64(3))
	f.Add(whole(0x02, nil)[:3], uint64(2))                       // truncated mid-prefix
	f.Add(whole(0x03, []byte("torn-tail"))[:7], uint64(5))       // truncated mid-body
	f.Add([]byte{0, 0, 0, 0, 0xAA}, uint64(1))                   // zero-length body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x02}, uint64(9)) // hostile length
	f.Add([]byte{16, 0, 0, 0, 0x04, 1, 2, 3}, uint64(4))         // claims more than sent

	const maxBody = 1 << 16 // small bound so fuzzed lengths can cross it

	f.Fuzz(func(t *testing.T, data []byte, chunkSeed uint64) {
		want, wantRest, wantHostile := refFrames(data, maxBody)

		// Read sizes are pseudo-random, derived from chunkSeed
		// (splitmix64).
		s := chunkSeed
		r := &chunkReader{data: data, next: func() int {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return int((z^z>>31)%37) + 1
		}}
		var got [][]byte
		var err error
		for {
			var frame []byte
			if frame, err = ReadFrame(r, []byte{0xEE}, maxBody); err != nil {
				if !bytes.Equal(frame, []byte{0xEE}) {
					t.Fatalf("buffer changed on error %v: %x", err, frame)
				}
				break
			}
			got = append(got, frame[1:])
		}

		switch {
		case wantHostile:
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("hostile length read as %v", err)
			}
		case wantRest == 0:
			if err != io.EOF {
				t.Fatalf("clean end read as %v", err)
			}
		default:
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("%d trailing bytes read as %v", wantRest, err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("read %d frames, oracle says %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d torn: got %d bytes, oracle %d", i, len(got[i]), len(want[i]))
			}
		}
	})
}
