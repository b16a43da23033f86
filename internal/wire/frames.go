// Spec-feed frame codecs: the three message shapes that cross the
// Job Service → Task Service seam, plus the poll request. See the
// package comment for the framing rules.
//
// Frame layouts (after the u32 length + kind byte):
//
//	FeedRequest:  flags(bit0 resync) | uvarint cursor | uvarint max |
//	              string subscriber | string resumeAfter
//	Delta:        uvarint next | uvarint count | count × entry
//	  entry:      flags(bit0 drop) | string name |
//	              commit only: varint rev | varint version | blob doc
//	ResyncNeeded: uvarint next
//	ResyncChunk:  flags(bit0 done) | uvarint count | count × item
//	  item:       string name | varint rev | varint version | blob doc
//
// Delta and chunk payloads are consumed through by-value iterators whose
// entries hold zero-copy views; decoding a doc (DecodeJobConfigBlob) is a
// separate explicit step, so a consumer that skips a job (revision
// already applied) never decodes its document.

package wire

import "repro/internal/config"

// FeedRequest is one subscriber poll. The zero value is a fresh
// subscriber: cursor 0, server-chosen batch size, delta mode.
type FeedRequest struct {
	// Subscriber identifies the caller for the server's per-subscriber
	// status registry (turbinectl feed); it does not affect the reply.
	Subscriber string
	// Cursor is the last journal sequence number applied (delta mode).
	Cursor uint64
	// Max bounds the entries in the reply frame; 0 means the server
	// default. The fault injector's "partial batch" is Max=1.
	Max int
	// Resync selects chunk-walk mode: the reply pages the full fleet
	// starting after ResumeAfter.
	Resync bool
	// ResumeAfter is the last job name applied from the previous chunk.
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
		Resync: flags&1 != 0,
		Cursor: r.Uvarint(),
		Max:    int(r.Uvarint()),
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
	Name    []byte
	Drop    bool
	Rev     int64
	Version int64
	Doc     []byte
}

// AppendDeltaHeader begins a FrameDelta with its cursor and entry count,
// returning the frame mark for EndFrame. Entries follow via
// AppendDeltaCommit / AppendDeltaDrop — exactly count of them.
func (e *Encoder) AppendDeltaHeader(next uint64, count int) int {
	mark := e.BeginFrame(FrameDelta)
	e.Buf = AppendUvarint(e.Buf, next)
	e.Buf = AppendUvarint(e.Buf, uint64(count))
	return mark
}

// AppendDeltaDrop appends a drop entry.
func (e *Encoder) AppendDeltaDrop(name string) {
	e.Buf = append(e.Buf, 1)
	e.Buf = AppendString(e.Buf, name)
}

// AppendDeltaCommit appends a commit entry carrying the job's running
// document.
func (e *Encoder) AppendDeltaCommit(name string, rev, version int64, doc config.Doc) error {
	e.Buf = append(e.Buf, 0)
	e.Buf = AppendString(e.Buf, name)
	e.Buf = AppendVarint(e.Buf, rev)
	e.Buf = AppendVarint(e.Buf, version)
	mark := e.BeginBlob()
	if err := e.AppendValue(doc); err != nil {
		return err
	}
	e.EndBlob(mark)
	return nil
}

// DecodeDelta reads a FrameDelta header and returns its entry iterator.
func DecodeDelta(body []byte) (Delta, error) {
	r := NewReader(body)
	d := Delta{Next: r.Uvarint()}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return Delta{}, err
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
		ent.Version = r.Varint()
		ent.Doc = r.Blob()
	}
	return ent, r.Err()
}

// AppendResyncNeeded encodes a FrameResyncNeeded: the subscriber must
// chunk-walk from the returned cursor.
func (e *Encoder) AppendResyncNeeded(next uint64) {
	mark := e.BeginFrame(FrameResyncNeeded)
	e.Buf = AppendUvarint(e.Buf, next)
	e.EndFrame(mark)
}

// DecodeResyncNeeded decodes a FrameResyncNeeded body.
func DecodeResyncNeeded(body []byte) (next uint64, err error) {
	r := NewReader(body)
	next = r.Uvarint()
	if r.Remaining() != 0 && r.Err() == nil {
		return 0, malformed("%d trailing bytes after resync-needed", r.Remaining())
	}
	return next, r.Err()
}

// ResyncChunk iterates a FrameResyncChunk body: one page of the full
// fleet walk, sorted by job name.
type ResyncChunk struct {
	// Done marks the final page: nothing is running beyond its last item.
	Done bool
	// Count is the number of items in the page.
	Count int
	r     Reader
	left  int
}

// ChunkItem is one running entry in a resync page. Views, like
// DeltaEntry's.
type ChunkItem struct {
	Name    []byte
	Rev     int64
	Version int64
	Doc     []byte
}

// AppendResyncChunkHeader begins a FrameResyncChunk; items follow via
// AppendChunkItem, then PatchChunkCount + EndFrame. The count field is a
// fixed u32 so the server can emit items first — skipping entries that
// vanished between its name snapshot and the per-job read — and patch
// the real count afterwards. countMark is the patch position.
func (e *Encoder) AppendResyncChunkHeader(done bool) (mark, countMark int) {
	mark = e.BeginFrame(FrameResyncChunk)
	var flags byte
	if done {
		flags |= 1
	}
	e.Buf = append(e.Buf, flags)
	countMark = e.BeginBlob() // u32 slot, patched by PatchChunkCount
	return mark, countMark
}

// PatchChunkCount writes the final item count into the slot reserved by
// AppendResyncChunkHeader.
func (e *Encoder) PatchChunkCount(countMark, count int) {
	putU32(e.Buf[countMark:], uint32(count))
}

// AppendChunkItem appends one running entry to a resync page.
func (e *Encoder) AppendChunkItem(name string, rev, version int64, doc config.Doc) error {
	e.Buf = AppendString(e.Buf, name)
	e.Buf = AppendVarint(e.Buf, rev)
	e.Buf = AppendVarint(e.Buf, version)
	mark := e.BeginBlob()
	if err := e.AppendValue(doc); err != nil {
		return err
	}
	e.EndBlob(mark)
	return nil
}

// DecodeResyncChunk reads a FrameResyncChunk header and returns its
// item iterator.
func DecodeResyncChunk(body []byte) (ResyncChunk, error) {
	r := NewReader(body)
	flags := r.Byte()
	c := ResyncChunk{Done: flags&1 != 0}
	n := r.u32()
	if err := r.Err(); err != nil {
		return ResyncChunk{}, err
	}
	if n > uint64(r.Remaining()) {
		return ResyncChunk{}, malformed("chunk count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	c.Count = int(n)
	c.left = int(n)
	c.r = r
	return c, nil
}

// Item decodes the next page item.
func (c *ResyncChunk) Item() (ChunkItem, error) {
	if c.left <= 0 {
		return ChunkItem{}, malformed("chunk over-read: all %d items consumed", c.Count)
	}
	c.left--
	r := &c.r
	var it ChunkItem
	it.Name = r.Bytes()
	it.Rev = r.Varint()
	it.Version = r.Varint()
	it.Doc = r.Blob()
	return it, r.Err()
}

// DecodeDocBlob materializes an entry's document view (DeltaEntry.Doc or
// ChunkItem.Doc) into a freshly allocated config-doc tree. No production
// path keeps a document: it is the definition DecodeJobConfigBlob is held
// to, and what tests read entries with.
func DecodeDocBlob(blob []byte) (config.Doc, error) {
	r := NewReader(blob)
	d, err := decodeDoc(&r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, malformed("%d trailing bytes after document", r.Remaining())
	}
	return d, nil
}

// DecodeJobConfigBlob decodes an entry's document view straight into a
// JobConfig, without building the document: the result equals
// config.JobConfigFromDoc(DecodeDocBlob(blob)), and it fails where that
// fails. A blob DecodeDocBlob rejects is an error; a well-formed document
// that JobConfigFromDoc rejects is a nil config and no error. Nothing in
// the result aliases blob. FuzzJobConfigBlob holds it to its definition.
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
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, malformed("%d trailing bytes after document", r.Remaining())
	}
	if d.unfit {
		return nil, nil
	}
	return d.cfg, nil
}
