// Document codec: JSON-shaped documents in a compact tagged binary form,
// the only form production reads and writes them in: the Job Store holds
// every document as a Blob, and the spec feed encodes a running entry's
// typed config (AppendJobConfig) as the document it stands for. A
// config.Doc tree crosses it only at a snapshot's JSON edge and in tests.
//
// Numbers keep their JSON semantics, not their Go type: an integer
// travels as vInt and decodes as int64, a float64 as vFloat. That matches
// config.JobConfigFromDoc, the typed decode's definition, which is the
// encoding/json round trip of the document and so decodes a number by
// its value, whatever Go type carries it.
//
// A document's keys are strictly ascending in byte order, and every
// varint is in its shortest form: the encoders write them so, and every
// decoder rejects anything else as malformed. So each document has
// exactly one encoding — two polls of the same revision produce
// byte-identical payloads, which is what makes the spec feed's frame
// cache sound, and a merge of blobs can copy values verbatim — and a
// streaming decoder meets case-variant keys ("Name", "name") in the
// sorted order in which config.JobConfigFromDoc applies them, which lets
// DecodeJobConfigBlob build a JobConfig without building the document.

package wire

import (
	"bytes"
	"reflect"
	"slices"
	"unicode/utf8"

	"repro/internal/config"
)

// Value tags.
const (
	vNil    byte = 0
	vFalse  byte = 1
	vTrue   byte = 2
	vInt    byte = 3 // zigzag varint
	vFloat  byte = 4 // 8-byte LE IEEE-754
	vString byte = 5 // uvarint length + bytes
	vArray  byte = 6 // uvarint count + values
	vDoc    byte = 7 // uvarint count + sorted (string key, value) pairs
)

// AppendJobConfig encodes cfg as a vDoc value: the document
// encoding/json makes of cfg (Marshal, then Unmarshal into a
// config.Doc) — the same keys, present and omitted alike, strings as
// encoding/json writes them — except that integer fields travel as vInt,
// exactly, where that round trip rounds them through float64. It
// writes straight from the struct, in a fixed sorted key order: no maps,
// no sort, and no allocation once the buffer is warm.
// DecodeJobConfigBlob returns cfg from the bytes, so a remote replica
// holds the very config the primary holds. A nil cfg — a running
// document that is no JobConfig — encodes as the empty document, whose
// config runs no tasks, as nil does. FuzzAppendJobConfig holds it to the
// document encoding it stands for.
func (e *Encoder) AppendJobConfig(cfg *config.JobConfig) {
	e.Buf = append(e.Buf, vDoc)
	if cfg == nil {
		e.Buf = AppendUvarint(e.Buf, 0)
		return
	}
	c := cfg
	// taskResources, input, output and package are always present.
	e.Buf = AppendUvarint(e.Buf, 4+nonZero(c.CheckpointDir)+nonZero(c.Enforcement)+
		nonZero(c.MaxTaskCount)+nonZero(c.Name)+nonZero(c.Operator)+
		nonZero(c.Priority)+nonZero(c.SLOSeconds)+nonZero(c.Stopped)+
		nonZero(c.TaskCount)+nonZero(c.ThreadsPerTask))
	e.text("checkpointDir", c.CheckpointDir)
	e.text("enforcement", string(c.Enforcement))
	e.object("input", nonZero(c.Input.Category)+nonZero(c.Input.Partitions))
	e.text("category", c.Input.Category)
	e.integer("partitions", int64(c.Input.Partitions))
	e.integer("maxTaskCount", int64(c.MaxTaskCount))
	e.text("name", c.Name)
	e.text("operator", string(c.Operator))
	e.object("output", nonZero(c.Output.Category))
	e.text("category", c.Output.Category)
	e.object("package", nonZero(c.Package.Name)+nonZero(c.Package.Version))
	e.text("name", c.Package.Name)
	e.text("version", c.Package.Version)
	e.integer("priority", int64(c.Priority))
	e.float("sloSeconds", c.SLOSeconds)
	if c.Stopped {
		e.Buf = AppendString(e.Buf, "stopped")
		e.Buf = append(e.Buf, vTrue)
	}
	e.integer("taskCount", int64(c.TaskCount))
	r := &c.TaskResources
	e.object("taskResources", nonZero(r.CPUCores)+nonZero(r.DiskBytes)+
		nonZero(r.MemoryBytes)+nonZero(r.NetworkBps))
	e.float("cpuCores", r.CPUCores)
	e.integer("diskBytes", r.DiskBytes)
	e.integer("memoryBytes", r.MemoryBytes)
	e.integer("networkBps", r.NetworkBps)
	e.integer("threadsPerTask", int64(c.ThreadsPerTask))
}

// nonZero counts a field the document holds: one that is not its type's
// zero value (omitempty; a float -0 is zero too).
func nonZero[T comparable](v T) uint64 {
	var zero T
	if v != zero {
		return 1
	}
	return 0
}

// object writes a key and the header of the object value with n fields
// that follow it.
func (e *Encoder) object(key string, n uint64) {
	e.Buf = AppendString(e.Buf, key)
	e.Buf = append(e.Buf, vDoc)
	e.Buf = AppendUvarint(e.Buf, n)
}

// text writes a non-empty string field, each byte of an invalid UTF-8
// sequence as U+FFFD, as encoding/json writes it.
func (e *Encoder) text(key, s string) {
	if s == "" {
		return
	}
	e.Buf = AppendString(e.Buf, key)
	e.Buf = append(e.Buf, vString)
	if utf8.ValidString(s) {
		e.Buf = AppendString(e.Buf, s)
		return
	}
	n := 0
	for _, r := range s {
		n += utf8.RuneLen(r)
	}
	e.Buf = AppendUvarint(e.Buf, uint64(n))
	for _, r := range s {
		e.Buf = utf8.AppendRune(e.Buf, r)
	}
}

// integer writes a non-zero integer field.
func (e *Encoder) integer(key string, n int64) {
	if n == 0 {
		return
	}
	e.Buf = AppendString(e.Buf, key)
	e.Buf = append(e.Buf, vInt)
	e.Buf = AppendVarint(e.Buf, n)
}

// float writes a non-zero float field.
func (e *Encoder) float(key string, x float64) {
	if x == 0 {
		return
	}
	e.Buf = AppendString(e.Buf, key)
	e.Buf = append(e.Buf, vFloat)
	e.Buf = AppendFloat(e.Buf, x)
}

// AppendDoc encodes d as a vDoc value, keys sorted at every level.
func (e *Encoder) AppendDoc(d config.Doc) error {
	return e.appendDocBody(d)
}

// AppendValue encodes one document value (scalar, array, or nested doc).
func (e *Encoder) AppendValue(v any) error {
	switch x := v.(type) {
	case nil:
		e.Buf = append(e.Buf, vNil)
	case bool:
		if x {
			e.Buf = append(e.Buf, vTrue)
		} else {
			e.Buf = append(e.Buf, vFalse)
		}
	case int:
		e.Buf = append(e.Buf, vInt)
		e.Buf = AppendVarint(e.Buf, int64(x))
	case int32:
		e.Buf = append(e.Buf, vInt)
		e.Buf = AppendVarint(e.Buf, int64(x))
	case int64:
		e.Buf = append(e.Buf, vInt)
		e.Buf = AppendVarint(e.Buf, x)
	case float64:
		e.Buf = append(e.Buf, vFloat)
		e.Buf = AppendFloat(e.Buf, x)
	case string:
		e.Buf = append(e.Buf, vString)
		e.Buf = AppendString(e.Buf, x)
	case []any:
		e.Buf = append(e.Buf, vArray)
		e.Buf = AppendUvarint(e.Buf, uint64(len(x)))
		for _, el := range x {
			if err := e.AppendValue(el); err != nil {
				return err
			}
		}
	case config.Doc:
		return e.appendDocBody(x)
	case map[string]any:
		return e.appendDocBody(config.Doc(x))
	default:
		// The type, not v itself: a v that escapes here would put every
		// Edit's value on the heap.
		return malformed("unsupported document value type %s", reflect.TypeOf(v))
	}
	return nil
}

// appendDocBody writes the vDoc tag, count, and sorted key/value pairs.
// The key buffer lives on the stack for the documents a job config is
// made of.
func (e *Encoder) appendDocBody(d config.Doc) error {
	e.Buf = append(e.Buf, vDoc)
	e.Buf = AppendUvarint(e.Buf, uint64(len(d)))
	var stack [16]string
	keys := stack[:0]
	for k := range d {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e.Buf = AppendString(e.Buf, k)
		if err := e.AppendValue(d[k]); err != nil {
			return err
		}
	}
	return nil
}

// decodeDoc decodes a vDoc value from r into a tree. With alias, its
// keys and strings are views of r's buffer, which must then never
// change; without, nothing in the tree aliases it.
func decodeDoc(r *Reader, alias bool) (config.Doc, error) {
	v, err := decodeValue(r, 0, alias)
	if err != nil {
		return nil, err
	}
	d, ok := v.(config.Doc)
	if !ok {
		return nil, malformed("expected document, got %T", v)
	}
	return d, nil
}

// docKey reads the i-th key of a document and checks that it sorts
// strictly after prev, the key before it.
func docKey(r *Reader, i uint64, prev []byte) []byte {
	k := r.Bytes()
	if i > 0 && r.Err() == nil && bytes.Compare(prev, k) >= 0 {
		r.fail("document key %q does not sort after %q", k, prev)
	}
	return k
}

// text returns b as a string: a view of it with alias, else a copy.
func text(b []byte, alias bool) string {
	if alias {
		return asString(b)
	}
	return string(b)
}

func decodeValue(r *Reader, depth int, alias bool) (any, error) {
	if depth > maxDepth {
		return nil, malformed("document nesting exceeds %d levels", maxDepth)
	}
	switch tag := r.Byte(); tag {
	case vNil:
		return nil, r.Err()
	case vFalse:
		return false, r.Err()
	case vTrue:
		return true, r.Err()
	case vInt:
		return r.Varint(), r.Err()
	case vFloat:
		return r.Float(), r.Err()
	case vString:
		return text(r.Bytes(), alias), r.Err()
	case vArray:
		n := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// One byte is the floor per element; a count beyond the
		// remaining bytes is hostile, not large.
		if n > uint64(r.Remaining()) {
			return nil, malformed("array count %d exceeds %d remaining bytes", n, r.Remaining())
		}
		arr := make([]any, 0, n)
		for i := uint64(0); i < n; i++ {
			el, err := decodeValue(r, depth+1, alias)
			if err != nil {
				return nil, err
			}
			arr = append(arr, el)
		}
		return arr, nil
	case vDoc:
		n := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n > uint64(r.Remaining()) {
			return nil, malformed("doc count %d exceeds %d remaining bytes", n, r.Remaining())
		}
		d := make(config.Doc, n)
		var k []byte
		for i := uint64(0); i < n; i++ {
			k = docKey(r, i, k)
			v, err := decodeValue(r, depth+1, alias)
			if err != nil {
				return nil, err
			}
			d[text(k, alias)] = v
		}
		return d, r.Err()
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, malformed("unknown value tag 0x%02x", tag)
	}
}

// skipValue reads past one value at depth, checking everything
// decodeValue checks, in the same order, without building it.
func skipValue(r *Reader, depth int) {
	if depth > maxDepth {
		r.fail("document nesting exceeds %d levels", maxDepth)
		return
	}
	skipBody(r, r.Byte(), depth)
}

// skipBody reads past the rest of a value whose tag was read.
func skipBody(r *Reader, tag byte, depth int) {
	switch tag {
	case vNil, vFalse, vTrue:
	case vInt:
		r.Varint()
	case vFloat:
		r.Float()
	case vString:
		r.Bytes()
	case vArray:
		n := r.Uvarint()
		if r.Err() != nil {
			return
		}
		if n > uint64(r.Remaining()) {
			r.fail("array count %d exceeds %d remaining bytes", n, r.Remaining())
			return
		}
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			skipValue(r, depth+1)
		}
	case vDoc:
		skipObject(r, depth)
	default:
		if r.Err() == nil {
			r.fail("unknown value tag 0x%02x", tag)
		}
	}
}

// skipObject reads past the body of a vDoc value at depth, its tag
// already read.
func skipObject(r *Reader, depth int) {
	n := r.Uvarint()
	if r.Err() != nil {
		return
	}
	if n > uint64(r.Remaining()) {
		r.fail("doc count %d exceeds %d remaining bytes", n, r.Remaining())
		return
	}
	var k []byte
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		k = docKey(r, i, k)
		skipValue(r, depth+1)
	}
}

// configDecoder decodes a document straight into a JobConfig, walking the
// bytes once and the schema's field tables alongside: a key that names a
// field has its value stored by the field's setter, every other value is
// only validated. It checks everything decodeValue checks, in the same
// order, so it fails as a wire error exactly where decodeDoc would. The
// first value that does not fit its field keeps the setter's error and
// makes the document no JobConfig; the walk goes on, so a wire error
// later in the blob still wins.
type configDecoder struct {
	r     Reader
	cfg   *config.JobConfig
	unfit error
}

// value decodes one value at depth into f, or only validates it if f is
// nil. A string field keeps a view of the blob.
func (d *configDecoder) value(f *config.Field, depth int) {
	r := &d.r
	if f == nil || depth > maxDepth {
		skipValue(r, depth)
		return
	}
	var err error
	switch tag := r.Byte(); tag {
	case vFalse, vTrue:
		err = f.SetBool(d.cfg, tag == vTrue)
	case vInt:
		if n := r.Varint(); r.Err() == nil {
			err = f.SetInt(d.cfg, n)
		}
	case vFloat:
		if x := r.Float(); r.Err() == nil {
			err = f.SetFloat(d.cfg, x)
		}
	case vString:
		if b := r.Bytes(); r.Err() == nil {
			err = f.SetString(d.cfg, asString(b))
		}
	case vArray:
		err = f.Array()
		skipBody(r, tag, depth)
	case vDoc:
		var fields config.Fields
		fields, err = f.Object()
		d.object(fields, depth)
	default: // null leaves the field as it is
		skipBody(r, tag, depth)
	}
	if d.unfit == nil {
		d.unfit = err
	}
}

// object decodes the body of a vDoc value at depth — its tag already
// read — into fields, or only validates it if fields is nil.
func (d *configDecoder) object(fields config.Fields, depth int) {
	r := &d.r
	n := r.Uvarint()
	if r.Err() != nil {
		return
	}
	if n > uint64(r.Remaining()) {
		r.fail("doc count %d exceeds %d remaining bytes", n, r.Remaining())
		return
	}
	var k []byte
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		k = docKey(r, i, k)
		var f *config.Field
		if fields != nil && d.unfit == nil {
			f = fields.Lookup(asString(k))
		}
		d.value(f, depth+1)
	}
}
