package wire

import (
	"sort"

	"repro/internal/config"
)

// The generic document encoder: any config.Doc, keys sorted at every
// level. No production path encodes a document any more — the spec feed
// encodes typed configs (AppendJobConfig) — so it lives here, as the
// oracle the typed encoding and the decoders are held to.

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
func (e *Encoder) appendDocBody(d config.Doc) error {
	e.Buf = append(e.Buf, vDoc)
	e.Buf = AppendUvarint(e.Buf, uint64(len(d)))
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.Buf = AppendString(e.Buf, k)
		if err := e.AppendValue(d[k]); err != nil {
			return err
		}
	}
	return nil
}
