package stream_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/stream"
)

// frame encodes one length-prefixed frame of the given kind and body.
func frame(kind byte, body []byte) []byte {
	var e wire.Encoder
	m := e.BeginFrame(kind)
	e.Buf = append(e.Buf, body...)
	e.EndFrame(m)
	return e.Buf
}

// drain pulls every complete frame currently decodable.
func drain(t *testing.T, d *stream.Decoder) (kinds []byte, bodies [][]byte) {
	t.Helper()
	for {
		kind, body, ok, err := d.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return kinds, bodies
		}
		kinds = append(kinds, kind)
		bodies = append(bodies, append([]byte(nil), body...))
	}
}

// TestDecoderSplitBoundaries feeds three frames one byte at a time and
// checks each frame surfaces exactly when its last byte arrives — never
// torn, never early.
func TestDecoderSplitBoundaries(t *testing.T) {
	frames := [][]byte{
		frame(0x01, []byte("alpha")),
		frame(0x02, nil),
		frame(0x03, bytes.Repeat([]byte{0xAB}, 300)),
	}
	var all []byte
	for _, f := range frames {
		all = append(all, f...)
	}
	var d stream.Decoder
	var got int
	for i := 0; i < len(all); i++ {
		d.Feed(all[i : i+1])
		kind, body, ok, err := d.Next()
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if !ok {
			continue
		}
		want := frames[got]
		if kind != want[4] || !bytes.Equal(body, want[5:]) {
			t.Fatalf("frame %d mismatch at byte %d", got, i)
		}
		got++
	}
	if got != len(frames) {
		t.Fatalf("decoded %d frames, want %d", got, len(frames))
	}
	if d.Buffered() != 0 {
		t.Fatalf("%d bytes buffered after clean drain", d.Buffered())
	}
}

// TestDecoderConcatenated feeds several frames in one chunk and drains
// them back to back.
func TestDecoderConcatenated(t *testing.T) {
	var all []byte
	for i := byte(1); i <= 4; i++ {
		all = append(all, frame(i, bytes.Repeat([]byte{i}, int(i)*7))...)
	}
	var d stream.Decoder
	d.Feed(all)
	kinds, bodies := drain(t, &d)
	if len(kinds) != 4 {
		t.Fatalf("decoded %d frames, want 4", len(kinds))
	}
	for i := range kinds {
		if kinds[i] != byte(i+1) || len(bodies[i]) != (i+1)*7 {
			t.Fatalf("frame %d: kind %#x len %d", i, kinds[i], len(bodies[i]))
		}
	}
}

// TestDecoderHostileLengths: a zero-length body and an over-bound length
// must poison the decoder with a sticky error — no allocation, no
// resynchronization, and Feed becomes a no-op.
func TestDecoderHostileLengths(t *testing.T) {
	cases := []struct {
		name   string
		prefix []byte
		want   error
	}{
		{"zero", []byte{0, 0, 0, 0}, wire.ErrMalformed},
		{"huge", []byte{0xff, 0xff, 0xff, 0xff}, stream.ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d stream.Decoder
			d.Feed(tc.prefix)
			_, _, _, err := d.Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// Sticky: more bytes cannot revive the stream.
			d.Feed(frame(0x01, []byte("x")))
			if _, _, _, err2 := d.Next(); !errors.Is(err2, tc.want) {
				t.Fatalf("error not sticky: %v", err2)
			}
			// Reset rebinds the decoder to a fresh stream.
			d.Reset()
			d.Feed(frame(0x01, []byte("x")))
			if _, _, ok, err3 := d.Next(); err3 != nil || !ok {
				t.Fatalf("after Reset: ok=%v err=%v", ok, err3)
			}
		})
	}
}

// TestDecoderTightBound: a server-side decoder with a small MaxBody
// rejects a length just past the bound and accepts one at it.
func TestDecoderTightBound(t *testing.T) {
	var d stream.Decoder
	d.MaxBody = 16
	d.Feed(frame(0x01, bytes.Repeat([]byte{1}, 15))) // body = kind + 15 = 16
	if _, _, ok, err := d.Next(); err != nil || !ok {
		t.Fatalf("at-bound frame: ok=%v err=%v", ok, err)
	}
	d.Feed(frame(0x01, bytes.Repeat([]byte{1}, 16))) // body = 17 > 16
	if _, _, _, err := d.Next(); !errors.Is(err, stream.ErrFrameTooLarge) {
		t.Fatalf("over-bound frame: err=%v", err)
	}
}

// TestDecoderCompaction drives the consumed-prefix compaction path:
// drain a large frame, then feed the tail of a half-arrived small one,
// and check the splice survives the internal copy.
func TestDecoderCompaction(t *testing.T) {
	big := frame(0x01, bytes.Repeat([]byte{0xCC}, 1000))
	small := frame(0x02, []byte("tail"))
	var d stream.Decoder
	d.Feed(append(append([]byte{}, big...), small[:3]...))
	if kind, _, ok, err := d.Next(); err != nil || !ok || kind != 0x01 {
		t.Fatalf("big frame: kind=%#x ok=%v err=%v", kind, ok, err)
	}
	// off is now 1005 with 3 live bytes — the next Feed must compact.
	d.Feed(small[3:])
	kind, body, ok, err := d.Next()
	if err != nil || !ok || kind != 0x02 || string(body) != "tail" {
		t.Fatalf("spliced frame: kind=%#x body=%q ok=%v err=%v", kind, body, ok, err)
	}
}

// tcpPair returns both ends of a loopback TCP connection, closed when the
// test ends. Unlike net.Pipe, a TCP conn whose peer has closed still
// accepts SetReadDeadline and then reads the close as io.EOF — the
// spec feed's real transport.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := lis.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		client.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

// TestFrameReaderEOFDiscrimination: a peer close between frames is a
// clean io.EOF; a close mid-frame is io.ErrUnexpectedEOF — the
// conn-level torn-frame signal, never a delivered frame.
func TestFrameReaderEOFDiscrimination(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		client, server := tcpPair(t)
		go func() {
			server.Write(frame(0x07, []byte("whole")))
			server.Close()
		}()
		r := stream.NewFrameReader(client, time.Second, 0)
		kind, body, err := r.ReadFrame()
		if err != nil || kind != 0x07 || string(body) != "whole" {
			t.Fatalf("frame: kind=%#x body=%q err=%v", kind, body, err)
		}
		if _, _, err := r.ReadFrame(); err != io.EOF {
			t.Fatalf("after clean close: err=%v, want io.EOF", err)
		}
	})
	t.Run("torn", func(t *testing.T) {
		client, server := tcpPair(t)
		f := frame(0x07, []byte("never-delivered"))
		go func() {
			server.Write(f[:len(f)-2])
			server.Close()
		}()
		r := stream.NewFrameReader(client, time.Second, 0)
		if _, _, err := r.ReadFrame(); err != io.ErrUnexpectedEOF {
			t.Fatalf("after mid-frame close: err=%v, want io.ErrUnexpectedEOF", err)
		}
	})
}

// TestFrameReaderDeadline: a silent peer trips the per-frame read
// deadline instead of hanging the reader forever.
func TestFrameReaderDeadline(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	r := stream.NewFrameReader(client, 20*time.Millisecond, 0)
	_, _, err := r.ReadFrame()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err=%v, want deadline exceeded", err)
	}
}

// TestWriteFrameRoundTrip pushes a frame through a real pipe and reads
// it back via the FrameReader.
func TestWriteFrameRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		stream.WriteFrame(server, frame(0x09, []byte("ping")), time.Second)
	}()
	r := stream.NewFrameReader(client, time.Second, 0)
	kind, body, err := r.ReadFrame()
	if err != nil || kind != 0x09 || string(body) != "ping" {
		t.Fatalf("kind=%#x body=%q err=%v", kind, body, err)
	}
	if r.Buffered() != 0 {
		t.Fatalf("%d stray bytes buffered after the reply", r.Buffered())
	}
}
