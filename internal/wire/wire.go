// Package wire is the binary codec for the control plane's RPC-shaped
// seams: running-configuration documents and Job Store journal deltas,
// packed into length-prefixed frames. (Task specs never travel: the feed
// ships running configs and each mirror derives its specs.)
//
// The codec exists so that a multi-process deployment is a wiring
// change, not a refactor (ROADMAP): every value that would cross a
// process boundary — a spec feed delta, a resync chunk, a feed request —
// already round-trips through this package inside the single-process
// build, and the in-process loopback transport in jobservice exercises
// it on every poll.
//
// Design rules, in priority order:
//
//  1. Allocation-aware encode: every Append* function writes into a
//     caller-owned []byte and returns the extended slice, so a steady
//     state with warm buffers encodes without allocating. Encoder
//     bundles the buffer with the sorted-key scratch that document
//     encoding needs.
//  2. Zero-copy decode views: Reader yields []byte views into the frame
//     for names and nested documents, and deltas/chunks are consumed
//     through by-value iterators — a subscriber that only needs to
//     advance its cursor touches no heap. Materializing a string or a
//     JobConfig is an explicit, caller-chosen step.
//  3. Hostile-input safety: malformed frames produce errors, never
//     panics or large speculative allocations. Lengths are validated
//     against the remaining input before use and document nesting is
//     depth-capped; FuzzFrameDecode holds the no-panic line.
//
// Integers encode as LEB128 varints (unsigned, or zigzag for signed);
// frame and document-blob lengths are fixed 4-byte little-endian so a
// blob can be skipped — or length-patched after encoding — without
// shifting bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Frame kinds. A frame on the wire is: u32 little-endian body length,
// then the body; the body's first byte is its kind.
const (
	// FrameDelta carries a batched ChangesSince window: journal entries
	// (cursor..next] with each commit's running doc inlined.
	FrameDelta byte = 0x01
	// FrameResyncNeeded tells a subscriber its cursor cannot be caught
	// up incrementally; it must chunk-walk the fleet from ResyncNeeded's
	// next cursor.
	FrameResyncNeeded byte = 0x02
	// FrameResyncChunk carries one bounded page of a full fleet walk.
	FrameResyncChunk byte = 0x03
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
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return u
}

// Varint reads a zigzag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Float reads 8 little-endian bytes as a float64.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("float past end at offset %d", r.off)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return f
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

// u32 reads a fixed-width little-endian uint32 (the patchable count
// fields).
func (r *Reader) u32() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail("u32 past end at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return uint64(v)
}

// putU32 writes v little-endian at the start of b.
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

// asString views b as a string without copying. Empty views normalize
// to "" so the result never carries a dangling pointer.
func asString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Encoder owns a reusable output buffer plus the scratch that document
// encoding needs. Zero value is ready; Reset between messages keeps the
// capacity, so a warm steady state encodes with zero allocations.
// Encoders are not safe for concurrent use.
type Encoder struct {
	// Buf is the accumulated output. Callers may take it (e.g. to cache
	// a finished frame) as long as they Reset or replace it afterwards.
	Buf []byte

	keys []string // sorted-key scratch; stack of regions, one per doc level
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
