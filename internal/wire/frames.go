// Spec-feed frame codecs: the poll request and its one reply shape, the
// delta, which crosses the Job Service → Task Service seam. See the
// package comment for the framing rules.
//
// Frame layouts (after the u32 length + kind byte):
//
//	FeedRequest:  flags(bit0 resync) | u64 incarnation | uvarint cursor |
//	              uvarint max | string subscriber | string resumeAfter
//	Delta:        flags(bit0 redirect) | u64 incarnation | uvarint next |
//	              uvarint count | count × entry
//	  entry:      flags(bit0 drop) | string name |
//	              commit only: varint rev | blob doc
//
// A delta answers both kinds of poll: a journal window in delta mode, a
// page of the running table's walk in resync mode. A redirect is a delta
// with no entries whose next is the cursor to adopt before walking. The
// incarnation (fixed 8 bytes, so frame sizes do not depend on it) names
// the server process a delta comes from and a request's cursor is of.
//
// Delta entries are consumed through a by-value iterator whose entries
// hold zero-copy views; decoding a doc (DecodeJobConfigBlob) is a
// separate explicit step, so a consumer that skips a job (revision
// already applied) never decodes its document.

package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/config"
)

// FeedRequest is one subscriber poll. The zero value is a fresh
// subscriber: cursor 0, server-chosen batch size, delta mode.
type FeedRequest struct {
	// Subscriber identifies the caller for the server's per-subscriber
	// status registry (turbinectl feed); it does not affect the reply.
	Subscriber string
	// Incarnation is the server incarnation Cursor and ResumeAfter came
	// from; 0 for a fresh subscriber. Another server redirects.
	Incarnation uint64
	// Cursor is the last journal sequence number applied (delta mode).
	Cursor uint64
	// Max bounds the entries in the reply frame; 0 means the server
	// default. The fault injector's "partial batch" is Max=1.
	Max int
	// Resync selects walk mode: the reply is the next page of the
	// running table, in name order after ResumeAfter, with Cursor as its
	// next.
	Resync bool
	// ResumeAfter is the last job name applied from the previous page.
	ResumeAfter string
}

// AppendFeedRequest encodes req as a FrameFeedRequest.
func (e *Encoder) AppendFeedRequest(req FeedRequest) {
	mark := e.BeginFrame(FrameFeedRequest)
	var flags byte
	if req.Resync {
		flags |= 1
	}
	e.Buf = append(e.Buf, flags)
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, req.Incarnation)
	e.Buf = AppendUvarint(e.Buf, req.Cursor)
	e.Buf = AppendUvarint(e.Buf, uint64(req.Max))
	e.Buf = AppendString(e.Buf, req.Subscriber)
	e.Buf = AppendString(e.Buf, req.ResumeAfter)
	e.EndFrame(mark)
}

// DecodeFeedRequest decodes a FrameFeedRequest body. The string fields
// are zero-copy views into body — valid only while body is unmodified;
// a server that retains Subscriber must clone it.
func DecodeFeedRequest(body []byte) (FeedRequest, error) {
	r := NewReader(body)
	flags := r.Byte()
	req := FeedRequest{
		Resync:      flags&1 != 0,
		Incarnation: r.Uint64(),
		Cursor:      r.Uvarint(),
		Max:         int(r.Uvarint()),
	}
	req.Subscriber = r.StringView()
	req.ResumeAfter = r.StringView()
	if r.Remaining() != 0 && r.Err() == nil {
		return req, malformed("%d trailing bytes after feed request", r.Remaining())
	}
	return req, r.Err()
}

// Delta iterates a FrameDelta body. Obtain with DecodeDelta; call Entry
// exactly Count times. Entries hold views into the frame buffer.
type Delta struct {
	// Redirect marks a cursor that cannot be caught up: the frame has no
	// entries, and Next is the cursor to adopt before walking the
	// running table.
	Redirect bool
	// Incarnation names the server process that encoded the frame.
	Incarnation uint64
	// Next is the cursor to hold after applying every entry.
	Next uint64
	// Count is the number of entries in the frame.
	Count int
	r     Reader
	left  int
}

// DeltaEntry is one journal change. Name and Doc are views into the
// frame; Doc is the encoded document blob of a commit (nil for drops),
// decoded on demand with DecodeJobConfigBlob.
type DeltaEntry struct {
	Name []byte
	Drop bool
	Rev  int64
	Doc  []byte
}

// deltaRedirect is the delta header's redirect flag.
const deltaRedirect = 1

// AppendDeltaHeader begins a FrameDelta of server incarnation inc with
// its cursor and entry count, returning the frame mark for EndFrame.
// Entries follow via AppendDeltaCommit / AppendDeltaDrop — exactly count
// of them.
func (e *Encoder) AppendDeltaHeader(inc, next uint64, count int) int {
	mark := e.BeginFrame(FrameDelta)
	e.Buf = append(e.Buf, 0)
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, inc)
	e.Buf = AppendUvarint(e.Buf, next)
	e.Buf = AppendUvarint(e.Buf, uint64(count))
	return mark
}

// AppendRedirect encodes a complete redirect of server incarnation inc:
// a FrameDelta with no entries telling the subscriber to adopt next and
// walk the running table.
func (e *Encoder) AppendRedirect(inc, next uint64) {
	mark := e.BeginFrame(FrameDelta)
	e.Buf = append(e.Buf, deltaRedirect)
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, inc)
	e.Buf = AppendUvarint(e.Buf, next)
	e.Buf = AppendUvarint(e.Buf, 0)
	e.EndFrame(mark)
}

// AppendDeltaDrop appends a drop entry.
func (e *Encoder) AppendDeltaDrop(name string) {
	e.Buf = append(e.Buf, 1)
	e.Buf = AppendString(e.Buf, name)
}

// AppendDeltaCommit appends a commit entry carrying the job's running
// configuration as its document (AppendJobConfig) and the server's
// revision of it.
func (e *Encoder) AppendDeltaCommit(name string, rev int64, cfg *config.JobConfig) {
	e.Buf = append(e.Buf, 0)
	e.Buf = AppendString(e.Buf, name)
	e.Buf = AppendVarint(e.Buf, rev)
	mark := e.BeginBlob()
	e.AppendJobConfig(cfg)
	e.EndBlob(mark)
}

// DecodeDelta reads a FrameDelta header and returns its entry iterator.
func DecodeDelta(body []byte) (Delta, error) {
	r := NewReader(body)
	flags := r.Byte()
	d := Delta{Redirect: flags&deltaRedirect != 0, Incarnation: r.Uint64(), Next: r.Uvarint()}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return Delta{}, err
	}
	if flags&^deltaRedirect != 0 {
		return Delta{}, malformed("unknown delta flags 0x%02x", flags)
	}
	if d.Redirect && n != 0 {
		return Delta{}, malformed("redirect carries %d entries", n)
	}
	if n > uint64(r.Remaining()) {
		return Delta{}, malformed("delta count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	d.Count = int(n)
	d.left = int(n)
	d.r = r
	return d, nil
}

// Entry decodes the next delta entry. Calling it more than Count times
// is an error.
func (d *Delta) Entry() (DeltaEntry, error) {
	if d.left <= 0 {
		return DeltaEntry{}, malformed("delta over-read: all %d entries consumed", d.Count)
	}
	d.left--
	r := &d.r
	flags := r.Byte()
	ent := DeltaEntry{Drop: flags&1 != 0}
	ent.Name = r.Bytes()
	if !ent.Drop {
		ent.Rev = r.Varint()
		ent.Doc = r.Blob()
	}
	return ent, r.Err()
}

// DecodeDocBlob materializes a document — an entry's view (DeltaEntry.Doc)
// or a Blob — into a freshly allocated config-doc tree that does not
// alias blob, as a feed entry needs: its frame buffer is reused. A Blob's
// own Doc method is the aliasing form. It is the definition
// DecodeJobConfigBlob is held to, and what tests read entries with.
func DecodeDocBlob(blob []byte) (config.Doc, error) {
	return decodeBlob(blob, false)
}

// DecodeJobConfigBlob decodes a document straight into a JobConfig,
// without building the document: the result equals
// config.JobConfigFromDoc(DecodeDocBlob(blob)), and it fails where that
// fails: a blob DecodeDocBlob rejects with ErrMalformed, and a document
// that is no JobConfig with the error of its first unfit field, which
// does not wrap ErrMalformed. Its strings are views of blob wherever
// they are valid UTF-8, so blob must never change afterwards: a feed
// entry is copied into a blob of its own first.
// FuzzJobConfigBlob holds it to its definition.
func DecodeJobConfigBlob(blob []byte) (*config.JobConfig, error) {
	d := configDecoder{r: NewReader(blob), cfg: new(config.JobConfig)}
	r := &d.r
	if tag := r.Byte(); tag != vDoc {
		if r.Err() == nil {
			r.fail("expected document, got value tag 0x%02x", tag)
		}
		return nil, r.Err()
	}
	d.object(config.JobConfigFields(), 0)
	if err := r.end(); err != nil {
		return nil, err
	}
	if d.unfit != nil {
		return nil, fmt.Errorf("decode job config: %w", d.unfit)
	}
	return d.cfg, nil
}
