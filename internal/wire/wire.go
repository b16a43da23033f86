// Package wire is the binary codec for the control plane's RPC-shaped
// seams: running-configuration documents and Job Store journal deltas,
// packed into length-prefixed frames. (Task specs never travel: the feed
// ships running configs and each mirror derives its specs.)
//
// The codec exists so that a multi-process deployment is a wiring
// change, not a refactor (ROADMAP): the delta that answers a feed poll
// is encoded by the server and decoded by the mirror on every poll even
// inside the single-process build, and the socket binding (jobservice's
// FeedListener, taskservice's DialTransport) frames the request too.
//
// Design rules, in priority order:
//
//  1. Allocation-aware encode: every Append* function writes into a
//     caller-owned []byte and returns the extended slice, or into an
//     Encoder's reusable buffer, so a steady state with warm buffers
//     encodes without allocating.
//  2. Zero-copy decode views: Reader yields []byte views into the frame
//     for names and nested documents, and deltas are consumed through a
//     by-value iterator — a subscriber that only needs to advance its
//     cursor touches no heap. Materializing a string or a JobConfig is
//     an explicit, caller-chosen step.
//  3. Hostile-input safety: malformed frames produce errors, never
//     panics or large speculative allocations. Lengths are validated
//     against the remaining input before use and document nesting is
//     depth-capped; FuzzFrameDecode holds the no-panic line. Off a
//     socket, ReadFrame rejects a zero or over-bound length before it
//     allocates and grows its buffer only with the bytes that arrive;
//     FuzzReadFrame holds it to a walk of the whole input.
//
// Integers encode as LEB128 varints (unsigned, or zigzag for signed);
// frame and document-blob lengths are fixed 4-byte little-endian so a
// blob can be skipped without reading it, and an encoder can write the
// body first and fill in its length after, without shifting bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Frame kinds. A frame on the wire is: u32 little-endian body length,
// then the body; the body's first byte is its kind.
const (
	// FrameDelta is the feed's one reply: a batched ChangesSince window
	// (journal entries (cursor..next] with each commit's running doc
	// inlined), one page of the running table's walk, or a redirect
	// onto that walk.
	FrameDelta byte = 0x01
	// FrameFeedRequest is a subscriber's poll request.
	FrameFeedRequest byte = 0x04
)

// ErrMalformed is wrapped by every decode error.
var ErrMalformed = errors.New("wire: malformed input")

// maxDepth bounds document nesting on decode so hostile input cannot
// exhaust the stack. Real job configs are 2–3 levels deep.
const maxDepth = 64

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// AppendUvarint appends u LEB128-encoded.
func AppendUvarint(b []byte, u uint64) []byte {
	return binary.AppendUvarint(b, u)
}

// AppendVarint appends v zigzag-encoded.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends a uvarint length followed by the bytes of s.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat appends the IEEE-754 bits of f, little-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Reader decodes wire primitives from a single buffer. Methods return
// zero values after the first error; check Err once at the end of a
// decode instead of after every field. Bytes views alias the input
// buffer and stay valid only while it is unmodified.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = malformed(format, args...)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("byte past end at offset %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads a LEB128 unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || !r.minimal(n) {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return u
}

// minimal reports whether the n-byte varint at the read offset is in its
// shortest form, as the encoders write every varint: a longer one ends in
// a zero byte. So each value has exactly one encoding.
func (r *Reader) minimal(n int) bool {
	return n == 1 || r.buf[r.off+n-1] != 0
}

// Varint reads a zigzag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 || !r.minimal(n) {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Float reads 8 little-endian bytes as a float64.
func (r *Reader) Float() float64 { return math.Float64frombits(r.Uint64()) }

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("8 bytes past end at offset %d", r.off)
		return 0
	}
	u := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return u
}

// take validates and consumes n bytes, returning a view into the buffer.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("length %d exceeds %d remaining bytes", n, len(r.buf)-r.off)
		return nil
	}
	v := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v
}

// Bytes reads a uvarint length prefix and returns a VIEW of that many
// bytes — no copy. The view aliases the Reader's buffer.
func (r *Reader) Bytes() []byte {
	return r.take(r.Uvarint())
}

// String reads a length-prefixed string, copying it out of the buffer.
// Use for values that outlive the frame (e.g. job names stored in a
// mirror).
func (r *Reader) String() string {
	return string(r.Bytes())
}

// StringView reads a length-prefixed string as a zero-copy view backed
// by the Reader's buffer. The result is valid ONLY while the buffer is
// unmodified and unreleased; callers that retain it (registry keys,
// cache keys) must clone first. This is the allocation-free path for
// transient lookups — map indexing and comparisons never need a copy.
func (r *Reader) StringView() string {
	return asString(r.Bytes())
}

// Blob reads a u32 length prefix and returns a view of that many bytes.
// Document payloads use the fixed-width prefix so encoders can patch the
// length in place after writing the body.
func (r *Reader) Blob() []byte {
	if r.err != nil {
		return nil
	}
	if r.off+4 > len(r.buf) {
		r.fail("blob length past end at offset %d", r.off)
		return nil
	}
	n := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return r.take(uint64(n))
}

// asString views b as a string without copying. Empty views normalize
// to "" so the result never carries a dangling pointer.
func asString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Encoder owns a reusable output buffer. Zero value is ready; Reset
// between messages keeps the capacity, so a warm steady state encodes
// with zero allocations. Encoders are not safe for concurrent use.
type Encoder struct {
	// Buf is the accumulated output. Callers may take it (e.g. to cache
	// a finished frame) as long as they Reset or replace it afterwards.
	Buf []byte
}

// Reset truncates the output buffer, keeping capacity.
func (e *Encoder) Reset() { e.Buf = e.Buf[:0] }

// BeginFrame starts a frame of the given kind: it reserves the u32
// length slot, writes the kind byte, and returns a mark to pass to
// EndFrame once the body is complete.
func (e *Encoder) BeginFrame(kind byte) int {
	mark := len(e.Buf)
	e.Buf = append(e.Buf, 0, 0, 0, 0, kind)
	return mark
}

// EndFrame patches the length slot reserved by BeginFrame.
func (e *Encoder) EndFrame(mark int) {
	binary.LittleEndian.PutUint32(e.Buf[mark:], uint32(len(e.Buf)-mark-4))
}

// BeginBlob reserves a u32 length slot for an inline blob (a document
// payload inside a frame) and returns its mark for EndBlob.
func (e *Encoder) BeginBlob() int {
	mark := len(e.Buf)
	e.Buf = append(e.Buf, 0, 0, 0, 0)
	return mark
}

// EndBlob patches the length slot reserved by BeginBlob.
func (e *Encoder) EndBlob(mark int) {
	binary.LittleEndian.PutUint32(e.Buf[mark:], uint32(len(e.Buf)-mark-4))
}

// DecodeFrame splits one length-prefixed frame off the front of b,
// returning its kind, its body (a view, with the kind byte consumed) and
// the unconsumed rest.
func DecodeFrame(b []byte) (kind byte, body []byte, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, nil, malformed("frame shorter than length prefix (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-4) {
		return 0, nil, nil, malformed("frame length %d exceeds %d available bytes", n, len(b)-4)
	}
	if n == 0 {
		return 0, nil, nil, malformed("empty frame body")
	}
	frame := b[4 : 4+n]
	return frame[0], frame[1:], b[4+n:], nil
}

// MaxFrameBody bounds a reply frame's body read off a socket. A delta
// batching DefaultFeedBatch full job documents stays well under it;
// anything larger is a corrupt or hostile length.
const MaxFrameBody = 1 << 26 // 64 MiB

// readAhead bounds how far ReadFrame grows its buffer past the bytes
// that have arrived: by the larger of readAhead and what has arrived, so
// a peer that claims a large body and stalls costs only what it sent.
const readAhead = 1 << 20

// ReadFrame reads one whole frame from r and appends it to buf: length
// prefix, kind and body, exactly what DecodeFrame reads. A zero length or
// one above maxBody is malformed and rejected before anything is
// allocated for the body. A clean close before the first prefix byte is
// io.EOF; a close mid-frame is io.ErrUnexpectedEOF. A frame is returned
// only once all of its bytes have arrived; on any error buf is returned
// unchanged. A buf with room for the frame is read into without
// allocating.
func ReadFrame(r io.Reader, buf []byte, maxBody int) ([]byte, error) {
	out := append(buf, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, out[len(buf):]); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(out[len(buf):])
	if n == 0 {
		return buf, malformed("empty frame body")
	}
	if uint64(n) > uint64(maxBody) {
		return buf, malformed("frame body of %d bytes exceeds the %d-byte bound", n, maxBody)
	}
	end := len(out) + int(n)
	for len(out) < end {
		if len(out) == cap(out) {
			grown := make([]byte, len(out), min(end, len(out)+max(len(out), readAhead)))
			copy(grown, out)
			out = grown
		}
		next := min(cap(out), end)
		if _, err := io.ReadFull(r, out[len(out):next]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		out = out[:next]
	}
	return out, nil
}
