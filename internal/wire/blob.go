// Blobs: documents held in the canonical encoding. The Job Store keeps
// every configuration layer, every version's merged document and every
// running entry as one Blob, built once and never modified, so a reader
// shares it without copying, a merge contributed by a single layer is
// that layer's blob, and the heap holds one pointer-free object per
// document instead of a tree of maps.

package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"repro/internal/config"
)

// Blob is one document (a vDoc value) in the canonical encoding: keys
// strictly ascending at every level, so equal documents built the same
// way are equal bytes. A Blob is IMMUTABLE once built — its decoded
// forms may alias it — and an empty Blob stands for no document at all
// (an unset layer). As JSON it is the document it encodes.
type Blob []byte

// builder is the scratch a blob is built in: the output, and for a
// merge the stack of value spans its levels work on. A finished blob is
// copied out at its exact size, so the scratch buffers are the only ones
// that grow.
type builder struct {
	Encoder
	spans [][]byte
}

var scratch = sync.Pool{New: func() any { return new(builder) }}

// build encodes into a scratch buffer with fill and returns the result
// as a blob of its own.
func build(fill func(*builder) error) (Blob, error) {
	e := scratch.Get().(*builder)
	e.Reset()
	e.spans = e.spans[:0]
	err := fill(e)
	var b Blob
	if err == nil {
		b = Blob(bytes.Clone(e.Buf))
	}
	clear(e.spans[:cap(e.spans)]) // hold no blob alive from the pool
	scratch.Put(e)
	return b, err
}

// EncodeDoc returns d as a blob: one allocation, at the encoding's size.
func EncodeDoc(d config.Doc) (Blob, error) {
	return build(func(e *builder) error { return e.AppendDoc(d) })
}

// JobConfigBlob returns cfg as a blob in AppendJobConfig's encoding.
func JobConfigBlob(cfg *config.JobConfig) Blob {
	b, _ := build(func(e *builder) error {
		e.AppendJobConfig(cfg)
		return nil
	})
	return b
}

// CheckDoc returns an error unless b is exactly one well-formed document,
// as DecodeDocBlob accepts it. It allocates only to report.
func CheckDoc(b []byte) error {
	r := NewReader(b)
	if tag := r.Byte(); tag != vDoc {
		if r.Err() == nil {
			r.fail("expected document, got value tag 0x%02x", tag)
		}
		return r.Err()
	}
	skipObject(&r, 0)
	return r.end()
}

// end is the error of a decode that should have consumed the whole
// buffer: the decode's own, or the bytes it left.
func (r *Reader) end() error {
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return malformed("%d trailing bytes after document", r.Remaining())
	}
	return nil
}

// Doc returns the document b encodes, nil for an empty b. The tree is
// the caller's to modify; its keys and strings are views of b.
func (b Blob) Doc() (config.Doc, error) {
	if len(b) == 0 {
		return nil, nil
	}
	return decodeBlob(b, true)
}

func decodeBlob(b []byte, alias bool) (config.Doc, error) {
	r := NewReader(b)
	d, err := decodeDoc(&r, alias)
	if err != nil {
		return nil, err
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return d, nil
}

// MarshalJSON writes the document b encodes as encoding/json writes it
// as a config.Doc, or null for an empty b.
func (b Blob) MarshalJSON() ([]byte, error) {
	if len(b) == 0 {
		return []byte("null"), nil
	}
	d, err := b.Doc()
	if err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// UnmarshalJSON reads a JSON object as encoding/json reads it into a
// config.Doc, except that a number literal that is an integer in int64
// range reads exactly, as an int64; any other number — a fraction, an
// exponent, out of range, or -0 — reads as a float64, as encoding/json
// reads it. null is the empty blob. What CheckDoc refuses is an error: a
// snapshot restores nothing the store could not read back.
func (b *Blob) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var d config.Doc
	if err := dec.Decode(&d); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("json: trailing data after the document")
	}
	if d == nil {
		*b = nil
		return nil
	}
	if _, err := exactNumbers(map[string]any(d)); err != nil {
		return err
	}
	enc, err := EncodeDoc(d)
	if err != nil {
		return err
	}
	if err := CheckDoc(enc); err != nil {
		return err
	}
	*b = enc
	return nil
}

// exactNumbers replaces every json.Number in v, in place, by the int64 or
// float64 UnmarshalJSON reads it as, and returns v.
func exactNumbers(v any) (any, error) {
	var err error
	switch x := v.(type) {
	case json.Number:
		return numberValue(string(x))
	case []any:
		for i := range x {
			if x[i], err = exactNumbers(x[i]); err != nil {
				return nil, err
			}
		}
	case map[string]any:
		for k, el := range x {
			if x[k], err = exactNumbers(el); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// numberValue is the value of the JSON number literal lit: an int64 if
// lit is an integer in int64 range other than -0, else a float64.
func numberValue(lit string) (any, error) {
	if lit != "-0" && !strings.ContainsAny(lit, ".eE") {
		if n, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return n, nil
		}
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return nil, fmt.Errorf("json: cannot read number %s as a float64", lit)
	}
	return f, nil
}

// MergeBlobs is paper Algorithm 1 over blobs, folded over layers in
// increasing precedence: empty layers are skipped, a later layer's value
// wins, and where two layers both hold an object at a key the merge
// recurses. It is a k-way merge-join of the layers' sorted keys that
// copies every value only one layer contributes verbatim, so the result
// is the canonical encoding of the merged document. A single layer's
// merge is that layer's blob itself; no layer merges to the empty
// document. A layer that is not one well-formed document is an error.
func MergeBlobs(layers []Blob) (Blob, error) {
	var top Blob
	n := 0
	for _, l := range layers {
		if len(l) > 0 {
			top, n = l, n+1
		}
	}
	switch n {
	case 0:
		return Blob{vDoc, 0}, nil
	case 1:
		if err := CheckDoc(top); err != nil {
			return nil, err
		}
		return top, nil
	}
	return build(func(b *builder) error {
		for _, l := range layers {
			if len(l) > 0 {
				b.spans = append(b.spans, l)
			}
		}
		return b.mergeObjects(0, true)
	})
}

// keyCursor walks the keys of one object.
type keyCursor struct {
	r    Reader
	left uint64
	i    uint64
	key  []byte
	live bool
}

// open positions c on the first key of the object value obj.
func (c *keyCursor) open(obj []byte) {
	*c = keyCursor{r: NewReader(obj)}
	if tag := c.r.Byte(); tag != vDoc && c.r.Err() == nil {
		c.r.fail("expected document, got value tag 0x%02x", tag)
	}
	c.left = c.r.Uvarint()
	if c.left > uint64(c.r.Remaining()) {
		c.r.fail("doc count %d exceeds %d remaining bytes", c.left, c.r.Remaining())
	}
	c.next()
}

// next moves c to its object's next key, if any, checking that it sorts
// after the one before.
func (c *keyCursor) next() {
	c.live = c.left > 0 && c.r.Err() == nil
	if c.live {
		c.left--
		c.key = docKey(&c.r, c.i, c.key)
		c.i++
		c.live = c.r.Err() == nil
	}
}

// span reads past one value and returns its bytes, nil on a decode error.
func span(r *Reader, depth int) []byte {
	start := r.off
	skipValue(r, depth)
	if r.Err() != nil {
		return nil
	}
	return r.buf[start:r.off:r.off]
}

// mergeObjects writes the merge of the object values b.spans[from:], in
// increasing precedence. Each level pushes the values it merges onto
// b.spans above its own and pops them when done. At the top level, the
// spans are whole layers, read here for the first time: every value
// taken from one is checked as it is read (span), and each layer must
// end where its document does. Below it, every object merged was checked
// whole when it was taken.
func (b *builder) mergeObjects(from int, top bool) error {
	var stack [4]keyCursor
	cs := stack[:0]
	for _, o := range b.spans[from:] {
		cs = append(cs, keyCursor{})
		cs[len(cs)-1].open(o)
	}
	base := len(b.spans)
	b.Buf = append(b.Buf, vDoc)
	at := len(b.Buf)
	count := uint64(0)
	for {
		var key []byte
		found := false
		for i := range cs {
			if cs[i].live && (!found || bytes.Compare(cs[i].key, key) < 0) {
				key, found = cs[i].key, true
			}
		}
		if !found {
			break
		}
		// The key's values, lowest precedence first; the highest one wins,
		// merged with the run of objects right below it if it is one.
		b.spans = b.spans[:base]
		for i := range cs {
			if cs[i].live && bytes.Equal(cs[i].key, key) {
				v := span(&cs[i].r, 1)
				if v == nil {
					return cs[i].r.Err()
				}
				b.spans = append(b.spans, v)
				cs[i].next()
			}
		}
		lo := len(b.spans) - 1
		for lo > base && b.spans[lo][0] == vDoc && b.spans[lo-1][0] == vDoc {
			lo--
		}
		b.Buf = AppendUvarint(b.Buf, uint64(len(key)))
		b.Buf = append(b.Buf, key...)
		if lo == len(b.spans)-1 {
			b.Buf = append(b.Buf, b.spans[lo]...)
		} else if err := b.mergeObjects(lo, false); err != nil {
			return err
		}
		count++
	}
	b.spans = b.spans[:base]
	if top {
		for i := range cs {
			if err := cs[i].r.end(); err != nil {
				return err
			}
		}
	}
	b.putCount(at, count)
	return nil
}

// putCount inserts count at at, where an object's body begins: the
// count leads the object but is known only once the body is written, so
// the body shifts up by its width.
func (b *builder) putCount(at int, count uint64) {
	var tmp [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(tmp[:], count)
	b.Buf = append(b.Buf, tmp[:w]...)
	copy(b.Buf[at+w:], b.Buf[at:len(b.Buf)-w])
	copy(b.Buf[at:], tmp[:w])
}

// Edit is one write into a document: the value at the dotted Path
// becomes Value, any value AppendValue encodes.
type Edit struct {
	Path  string
	Value any
}

// emptyDoc is the empty document, the one an empty blob stands for.
var emptyDoc = Blob{vDoc, 0}

// EditBlob returns the document b encodes (the empty document for an
// empty b) with every edit written, as config.Doc's SetPath writes one:
// each dot-separated part of a path but the last names an object,
// created where it is missing and replacing any other value; the last
// part's key takes the edit's value, an object too, whatever it held. No
// path may equal another or lead through it. The result is the canonical
// encoding of the edited document, built in one pass over b's sorted
// keys that copies every value no edit reaches verbatim, as one
// allocation. b is checked as it is read, as MergeBlobs checks a layer;
// the values are encoded as they are, finite or not.
func EditBlob(b Blob, edits ...Edit) (Blob, error) {
	for i := range edits {
		for j := i + 1; j < len(edits); j++ {
			if p, q := edits[i].Path, edits[j].Path; leads(p, q) || leads(q, p) {
				// Copies, so that no edit escapes: a caller's edits and
				// their boxed values stay on its stack.
				return nil, fmt.Errorf("wire: edits at %q and %q overlap", strings.Clone(p), strings.Clone(q))
			}
		}
	}
	if len(b) == 0 {
		b = emptyDoc
	}
	return build(func(e *builder) error { return e.editObject(b, edits, "", 0) })
}

// leads reports whether path p equals q or leads through it.
func leads(p, q string) bool {
	return strings.HasPrefix(q, p) && (len(q) == len(p) || q[len(p)] == '.')
}

// editObject writes the object value obj (nil for none) at depth with
// the edits whose paths start with prefix written into it, the rest of
// each such path being a key under it. The edits' keys at this level
// merge into obj's sorted keys: a key no edit names keeps its value
// verbatim, a key that ends an edit's path takes its value, and a key
// that leads on is edited in turn, as an object.
func (b *builder) editObject(obj []byte, edits []Edit, prefix string, depth int) error {
	var c keyCursor
	if obj != nil {
		c.open(obj)
	}
	b.Buf = append(b.Buf, vDoc)
	at := len(b.Buf)
	count := uint64(0)
	last, started := "", false
	for {
		// The least key after last that an edit names here; edits are few.
		key, ei, found := "", -1, false
		for i := range edits {
			rest, ok := strings.CutPrefix(edits[i].Path, prefix)
			if !ok {
				continue
			}
			k, _, _ := strings.Cut(rest, ".")
			if (!started || k > last) && (!found || k < key) {
				key, ei, found = k, i, true
			}
		}
		for c.live && (!found || asString(c.key) < key) {
			v := span(&c.r, depth+1)
			if v == nil {
				break
			}
			b.Buf = AppendUvarint(b.Buf, uint64(len(c.key)))
			b.Buf = append(b.Buf, c.key...)
			b.Buf = append(b.Buf, v...)
			count++
			c.next()
		}
		if err := c.r.Err(); err != nil {
			return err
		}
		if !found {
			break
		}
		var old []byte
		if c.live && asString(c.key) == key {
			if old = span(&c.r, depth+1); old == nil {
				return c.r.Err()
			}
			c.next()
		}
		b.Buf = AppendString(b.Buf, key)
		if path := edits[ei].Path; len(path) == len(prefix)+len(key) {
			if err := b.AppendValue(edits[ei].Value); err != nil {
				return err
			}
		} else {
			if len(old) == 0 || old[0] != vDoc {
				old = nil
			}
			if err := b.editObject(old, edits, path[:len(prefix)+len(key)+1], depth+1); err != nil {
				return err
			}
		}
		count++
		last, started = key, true
	}
	if err := c.r.end(); err != nil {
		return err
	}
	b.putCount(at, count)
	return nil
}
