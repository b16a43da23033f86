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
// for the layering step. Here JobConfig plays the Thrift role and a
// canonical wire.Blob the serialized one (wire.MergeBlobs merges them, and
// this package's field tables decode a merge). Doc, a JSON object as
// map[string]any, remains for a snapshot's JSON edge and as test oracles.
package config

import (
	"errors"
	"fmt"
	"strconv"
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
