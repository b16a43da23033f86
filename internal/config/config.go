// Package config implements Turbine's hierarchical job configuration
// (paper §III-A, Table I).
//
// A job's expected configuration is not one document but a stack of four
// partial documents in increasing precedence: Base < Provisioner < Scaler <
// Oncall. Each layer is written by a different actor (defaults, the
// Provision Service, the Auto Scaler, a human oncall) that needs to know
// nothing about the others. The effective expected configuration is
// obtained by recursively merging the layers (paper Algorithm 1): values in
// a higher layer override the lower layer, and nested JSON maps are merged
// key-by-key rather than replaced wholesale.
//
// The paper uses Thrift structs for compile-time typing, serialized to JSON
// for the layering step. Here JobConfig plays the Thrift role and Doc (a
// JSON object as map[string]any) plays the serialized role; the same
// recursive merge applies.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Layer identifies one level of the expected-job configuration stack.
// Higher values take precedence (Table I).
type Layer int

// The four configuration layers, in increasing precedence.
const (
	LayerBase Layer = iota
	LayerProvisioner
	LayerScaler
	LayerOncall
	numLayers
)

// Layers lists all layers in merge (increasing precedence) order.
func Layers() []Layer {
	return []Layer{LayerBase, LayerProvisioner, LayerScaler, LayerOncall}
}

// String returns the layer's name as used in the job store schema.
func (l Layer) String() string {
	switch l {
	case LayerBase:
		return "base"
	case LayerProvisioner:
		return "provisioner"
	case LayerScaler:
		return "scaler"
	case LayerOncall:
		return "oncall"
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// Valid reports whether l is one of the four defined layers.
func (l Layer) Valid() bool { return l >= LayerBase && l < numLayers }

// Doc is a JSON object: the unit of configuration layering.
type Doc map[string]any

// Merge implements paper Algorithm 1 (layerConfigs): it returns a new Doc
// in which every key of top overrides bottom, except that when both sides
// hold JSON objects the merge recurses. Neither input is modified.
func Merge(bottom, top Doc) Doc {
	out := make(Doc, len(bottom)+len(top))
	for k, v := range bottom {
		out[k] = deepCopyValue(v)
	}
	mergeInto(out, top)
	return out
}

// mergeInto merges top into dst in place. dst (and everything reachable
// from it) must be privately owned by the caller; values taken from top
// are deep-copied, so dst never aliases top afterwards.
func mergeInto(dst, top Doc) {
	for k, topValue := range top {
		topMap, topIsMap := asDoc(topValue)
		dstValue, inDst := dst[k]
		if topIsMap && inDst {
			if dstMap, ok := asDoc(dstValue); ok {
				// Keep the merged subtree typed as Doc, matching the
				// recursive Merge this path replaces.
				dst[k] = dstMap
				mergeInto(dstMap, topMap)
				continue
			}
		}
		dst[k] = deepCopyValue(topValue)
	}
}

// asDoc reports whether v is a JSON object, converting map types produced
// both by literals (Doc) and by json.Unmarshal (map[string]any).
func asDoc(v any) (Doc, bool) {
	switch m := v.(type) {
	case Doc:
		return m, true
	case map[string]any:
		return Doc(m), true
	default:
		return nil, false
	}
}

func deepCopyValue(v any) any {
	switch x := v.(type) {
	case Doc:
		return Doc(deepCopyMap(x))
	case map[string]any:
		return deepCopyMap(x)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = deepCopyValue(e)
		}
		return out
	default:
		return v
	}
}

func deepCopyMap(m map[string]any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = deepCopyValue(v)
	}
	return out
}

// GetPath returns the value at a dotted path such as "package.version".
func (d Doc) GetPath(path string) (any, bool) {
	cur := d
	for {
		part, rest, nested := strings.Cut(path, ".")
		v, ok := cur[part]
		if !ok || !nested {
			return v, ok
		}
		if cur, ok = asDoc(v); !ok {
			return nil, false
		}
		path = rest
	}
}

// CheckFinite returns an error naming a path at which the document value
// v holds a NaN or an infinity, nil if it holds none. Such a number has
// no JSON form: a store holding one could not be snapshotted. It
// allocates only to report.
func CheckFinite(v any) error {
	if path, bad := nonFinite(v); bad {
		if path == "" {
			return errors.New("number is not finite")
		}
		return fmt.Errorf("%s: number is not finite", path)
	}
	return nil
}

// nonFinite reports whether v holds a NaN or an infinity, and the path to
// it relative to v, built only on the way out of a find.
func nonFinite(v any) (string, bool) {
	switch x := v.(type) {
	case float64:
		return "", !isFinite(x)
	case float32:
		return "", !isFinite(float64(x))
	case []any:
		for i, el := range x {
			if path, bad := nonFinite(el); bad {
				return joinPath("["+strconv.Itoa(i)+"]", path), true
			}
		}
	case Doc:
		return nonFiniteIn(x)
	case map[string]any:
		return nonFiniteIn(x)
	}
	return "", false
}

func nonFiniteIn(m map[string]any) (string, bool) {
	for k, el := range m {
		if path, bad := nonFinite(el); bad {
			return joinPath(k, path), true
		}
	}
	return "", false
}

func joinPath(head, rest string) string {
	if rest == "" || rest[0] == '[' {
		return head + rest
	}
	return head + "." + rest
}

// Equal reports whether two docs are structurally equal as JSON values.
// Numeric values compare by their canonical JSON encoding, so int(5) and
// float64(5) are equal, matching the layering semantics.
func Equal(a, b Doc) bool {
	ja, err := canonicalJSON(a)
	if err != nil {
		return false
	}
	jb, err := canonicalJSON(b)
	if err != nil {
		return false
	}
	return bytes.Equal(ja, jb)
}

// canonicalJSON round-trips through encoding/json so that all numbers are
// float64 and map keys are sorted (encoding/json sorts map keys).
func canonicalJSON(d Doc) ([]byte, error) {
	raw, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}
