package config

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
)

// The map forms of layering, equality, path reads, editing and diffing:
// the store once merged, compared, read, edited and diffed config.Doc
// trees with these; it now works on wire blobs, and these are the oracles
// wire.MergeBlobs, wire.EditBlob and wire.Differ are fuzzed against
// (internal/config/blob_fuzz_test.go) and the reference the layering and
// diff property tests check.

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
				// Keep the merged subtree typed as Doc.
				dst[k] = dstMap
				mergeInto(dstMap, topMap)
				continue
			}
		}
		dst[k] = deepCopyValue(topValue)
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

// MergeLayersShared folds docs with Merge, in order: docs[0] is the bottom
// layer, the last doc has the highest precedence, nil docs are skipped —
// but without Merge's deep copies: subtrees (and leaf values) contributed
// by a single layer are aliased directly into the result, and only map
// levels where layers actually collide are freshly allocated. The result
// therefore shares memory with the input docs — it is only safe where both
// the inputs and the output are immutable, which is exactly the Job
// Store's contract: layer docs are replaced wholesale (never mutated) by
// SetLayer, the cached merged doc is handed out as shared read-only, and
// the Job Service's trial merge is decoded and dropped. A package-version bump on a 20-field
// config re-merges by allocating two small maps instead of deep-copying
// the whole document — and because unchanged subtrees keep their identity
// across re-merges, Diff's same-map fast path skips them wholesale.
func MergeLayersShared(docs ...Doc) Doc {
	var out Doc
	first := true
	for _, d := range docs {
		if d == nil {
			continue
		}
		if first {
			// A single-layer "merge" still gets a fresh top-level map:
			// the cache contract says the result is a distinct doc, and
			// the common multi-layer fold overwrites top-level keys.
			out = make(Doc, len(d))
			for k, v := range d {
				out[k] = v
			}
			first = false
			continue
		}
		out = mergeShared(out, d)
	}
	if out == nil {
		out = Doc{}
	}
	return out
}

// mergeShared merges top over bottom, aliasing one-sided subtrees. bottom
// is a privately-owned accumulator map (from MergeLayersShared) whose
// values may alias layer docs; top is an immutable layer doc.
func mergeShared(bottom, top Doc) Doc {
	for k, topValue := range top {
		topMap, topIsMap := asDoc(topValue)
		bottomValue, inBottom := bottom[k]
		if topIsMap && inBottom {
			if bottomMap, ok := asDoc(bottomValue); ok {
				// Collision of two object values: allocate a fresh level
				// and recurse. The bottom subtree may alias a layer doc,
				// so it cannot be mutated in place.
				merged := make(Doc, len(bottomMap)+len(topMap))
				for bk, bv := range bottomMap {
					merged[bk] = bv
				}
				bottom[k] = mergeShared(merged, topMap)
				continue
			}
		}
		bottom[k] = topValue
	}
	return bottom
}

// SetPath sets the value at a dotted path, creating intermediate objects.
// It returns d for chaining. Setting through a non-object value replaces it.
// It is the map form of a layer edit, the oracle wire.EditBlob is fuzzed
// against (FuzzEditBlob).
func (d Doc) SetPath(path string, value any) Doc {
	cur := d
	for {
		part, rest, nested := strings.Cut(path, ".")
		if !nested {
			cur[part] = value
			return d
		}
		next, ok := asDoc(cur[part])
		if !ok {
			next = Doc{}
			cur[part] = next
		}
		cur, path = next, rest
	}
}

// Clone returns a deep copy of d.
func (d Doc) Clone() Doc {
	if d == nil {
		return nil
	}
	return Doc(deepCopyMap(d))
}

// Change is one leaf-level difference between two documents.
type Change struct {
	Path string // dotted path, e.g. "package.version"
	From any    // nil if the path was absent
	To   any    // nil if the path was removed
}

// Diff returns the leaf-level changes that transform a into b, sorted by
// path. Nested objects are compared recursively; everything else (scalars,
// arrays) is compared by canonical JSON encoding. Subtrees that are the
// same map object on both sides — common when both docs came from the
// alias-sharing MergeLayersShared and the subtree's layer did not change —
// are skipped without being walked: a map always diffs empty against
// itself.
func Diff(a, b Doc) []Change {
	var d Differ
	return d.Diff(a, b)
}

// Differ computes document diffs with reusable scratch: the change slice
// and the key buffer persist across calls, so a caller that diffs many
// document pairs — the State Syncer's churn path diffs one pair per
// divergent job per round — allocates only on high-water-mark growth.
// Not safe for concurrent use; hold one per worker slot.
type Differ struct {
	out  []Change
	keys []string
}

// Diff is the package-level Diff with reuse: the returned slice aliases
// the Differ's internal buffer and is valid until the next call.
func (d *Differ) Diff(a, b Doc) []Change {
	d.out = d.out[:0]
	if sameMap(a, b) {
		return d.out
	}
	diffInto("", a, b, &d.out, &d.keys)
	// The per-level walk emits in key order, which can differ from full
	// dotted-path order when keys contain characters below '.' — keep the
	// final sort so output ordering is defined by Path alone.
	out := d.out
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// diffInto walks one nesting level. keys is the walk's shared key
// buffer: every level carves its two sorted key runs out of the one
// growing slice and trims back on the way out (stack discipline), so a
// whole document diff reuses a single key array.
func diffInto(prefix string, a, b Doc, out *[]Change, keys *[]string) {
	// Two-pointer walk over each side's sorted keys: no per-level key-set
	// map on the State Syncer's per-job diff path.
	base := len(*keys)
	*keys = appendSortedKeys(*keys, a)
	mid := len(*keys)
	*keys = appendSortedKeys(*keys, b)
	// Recursive calls append past len and may regrow *keys; these views
	// keep the current backing array alive and are never overwritten.
	ak := (*keys)[base:mid]
	bk := (*keys)[mid:len(*keys):len(*keys)]
	i, j := 0, 0
	for i < len(ak) || j < len(bk) {
		var k string
		var inA, inB bool
		switch {
		case j >= len(bk) || (i < len(ak) && ak[i] < bk[j]):
			k, inA = ak[i], true
			i++
		case i >= len(ak) || ak[i] > bk[j]:
			k, inB = bk[j], true
			j++
		default:
			k, inA, inB = ak[i], true, true
			i++
			j++
		}
		path := k
		if prefix != "" {
			path = prefix + "." + k
		}
		switch {
		case !inA:
			*out = append(*out, Change{Path: path, From: nil, To: b[k]})
		case !inB:
			*out = append(*out, Change{Path: path, From: a[k], To: nil})
		default:
			av, bv := a[k], b[k]
			am, aIsMap := asDoc(av)
			bm, bIsMap := asDoc(bv)
			if aIsMap && bIsMap {
				if !sameMap(am, bm) {
					diffInto(path, am, bm, out, keys)
				}
				continue
			}
			if !leafEqual(av, bv) {
				*out = append(*out, Change{Path: path, From: av, To: bv})
			}
		}
	}
	*keys = (*keys)[:base]
}

// sameMap reports whether a and b are the same underlying map object.
func sameMap(a, b Doc) bool {
	return a != nil && b != nil && reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// appendSortedKeys appends d's keys to buf in sorted order (the appended
// run is sorted; buf's existing contents are untouched).
func appendSortedKeys(buf []string, d Doc) []string {
	if len(d) == 0 {
		return buf
	}
	base := len(buf)
	for k := range d {
		buf = append(buf, k)
	}
	sort.Strings(buf[base:])
	return buf
}

func leafEqual(a, b any) bool {
	// Fast paths for the common scalar kinds, avoiding JSON round trips
	// on the State Syncer's hot diff path.
	switch av := a.(type) {
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case float64:
		switch bv := b.(type) {
		case float64:
			return av == bv
		case int:
			return av == float64(bv)
		case int64:
			return av == float64(bv)
		}
	case int:
		switch bv := b.(type) {
		case int:
			return av == bv
		case float64:
			return float64(av) == bv
		case int64:
			return int64(av) == bv
		}
	case int64:
		switch bv := b.(type) {
		case int64:
			return av == bv
		case int:
			return av == int64(bv)
		case float64:
			return float64(av) == bv
		}
	case nil:
		return b == nil
	}
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	if errA != nil || errB != nil {
		return false
	}
	if bytes.Equal(ja, jb) {
		return true
	}
	// Normalize numeric representations (int vs float64).
	var va, vb any
	if json.Unmarshal(ja, &va) != nil || json.Unmarshal(jb, &vb) != nil {
		return false
	}
	na, err1 := json.Marshal(va)
	nb, err2 := json.Marshal(vb)
	return err1 == nil && err2 == nil && bytes.Equal(na, nb)
}
