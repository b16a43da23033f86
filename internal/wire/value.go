// Document codec: config.Doc values (JSON-shaped trees) in a compact
// tagged binary form. Documents encode deterministically — object keys
// are sorted — so two polls of the same revision produce byte-identical
// payloads, which is what makes the spec feed's frame cache sound: a
// cached frame is not "probably equivalent" to a re-encode, it is the
// same bytes.
//
// Numbers keep their JSON semantics, not their Go type: int and int64
// both travel as vInt and decode as int64, float64 travels as vFloat.
// That matches config.JobConfigFromDoc, which is defined as the
// encoding/json round trip of the document and so decodes a number by
// its value, whatever Go type carries it — a mirror that holds int64
// where the primary holds int or an integral float64 decodes the same
// JobConfig; config.Equal (canonical-JSON comparison) holds across a
// wire round trip.
//
// A decoded key that is one of the JobConfig schema's JSON field names
// ("name", "package", "taskCount", "cpuCores", … — config.SchemaKey,
// exact bytes only) is not allocated: it is the schema's own string,
// shared by every document decoded. That is safe because strings are
// immutable and the set is a fixed, read-only table built from the
// schema's field tables — a peer cannot add to it, so hostile input
// decodes as before. Every other key is copied out of the frame.

package wire

import (
	"sort"

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

// AppendDoc encodes d as a vDoc value into the encoder's buffer.
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
		return malformed("unsupported document value type %T", v)
	}
	return nil
}

// appendDocBody writes the vDoc tag, count, and sorted key/value pairs.
// The sorted-key scratch is a stack: each nesting level claims a region
// of e.keys and truncates it on the way out, so deep documents reuse one
// backing array.
func (e *Encoder) appendDocBody(d config.Doc) error {
	e.Buf = append(e.Buf, vDoc)
	e.Buf = AppendUvarint(e.Buf, uint64(len(d)))
	mark := len(e.keys)
	for k := range d {
		e.keys = append(e.keys, k)
	}
	keys := e.keys[mark:]
	sort.Strings(keys)
	var err error
	for _, k := range keys {
		e.Buf = AppendString(e.Buf, k)
		if err = e.AppendValue(d[k]); err != nil {
			break
		}
	}
	e.keys = e.keys[:mark]
	return err
}

// DecodeDoc decodes a vDoc value from r. The result is freshly
// allocated, but for the schema's shared key strings; nothing in it
// aliases the frame buffer, so it is safe to hand to a Job Store (which
// keeps documents forever).
func DecodeDoc(r *Reader) (config.Doc, error) {
	v, err := decodeValue(r, 0)
	if err != nil {
		return nil, err
	}
	d, ok := v.(config.Doc)
	if !ok {
		return nil, malformed("expected document, got %T", v)
	}
	return d, nil
}

// DecodeValue decodes one document value from r.
func DecodeValue(r *Reader) (any, error) {
	return decodeValue(r, 0)
}

// docKey reads a document key: the schema's own string for a JobConfig
// field name, a fresh copy of anything else.
func docKey(r *Reader) string {
	b := r.Bytes()
	if k, ok := config.SchemaKey(b); ok {
		return k
	}
	return string(b)
}

func decodeValue(r *Reader, depth int) (any, error) {
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
		return r.String(), r.Err()
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
			el, err := decodeValue(r, depth+1)
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
		for i := uint64(0); i < n; i++ {
			k := docKey(r)
			v, err := decodeValue(r, depth+1)
			if err != nil {
				return nil, err
			}
			d[k] = v
		}
		return d, r.Err()
	default:
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, malformed("unknown value tag 0x%02x", tag)
	}
}
