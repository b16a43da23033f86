package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Change is one leaf-level difference between two documents.
type Change struct {
	Path     string // dotted path, e.g. "package.version"
	From, To Value  // nil where the path is absent
}

// Value is one encoded document value: a view of the blob it was read
// from. It is decoded only when asked for, and prints as its decoded
// value ("<nil>" when absent).
type Value []byte

// Decode returns the value v encodes, nil for an absent one.
func (v Value) Decode() (any, error) {
	if v == nil {
		return nil, nil
	}
	r := NewReader(v)
	x, err := decodeValue(&r, 0, false)
	if err != nil {
		return nil, err
	}
	return x, r.end()
}

// String formats the decoded value as fmt's %v does.
func (v Value) String() string {
	x, err := v.Decode()
	if err != nil {
		return "<malformed>"
	}
	return fmt.Sprint(x)
}

// DiffBlobs returns the leaf-level changes that transform a into b,
// sorted by path. Objects on both sides are compared key by key; any
// other pair of values is a change unless equal as JSON values, numbers
// compared by value (an integer 8 equals a float 8.0). Documents hold
// finite numbers only, which is what lets byte-equal values count as
// equal without being read.
func DiffBlobs(a, b Blob) ([]Change, error) {
	var d Differ
	return d.Diff(a, b)
}

// Differ computes DiffBlobs with reusable scratch: the change slice and
// a pair of key cursors per nesting level it has met. A caller that
// diffs many pairs — the State Syncer diffs one pair per divergent job
// per round — allocates only the paths of nested changes. Not safe for
// concurrent use; hold one per worker slot.
type Differ struct {
	out []Change
	cs  []keyCursor // cs[2k], cs[2k+1]: the two objects compared at depth k
}

// Diff is DiffBlobs with reuse: the returned slice is valid until the
// next call, and its paths and values are views of a and b.
func (d *Differ) Diff(a, b Blob) ([]Change, error) {
	d.out = d.out[:0]
	d.open(0, a, b)
	d.objects("", 0)
	err := d.cs[0].r.end()
	if err == nil {
		err = d.cs[1].r.end()
	}
	clear(d.cs) // hold no blob alive between diffs
	if err != nil {
		return nil, err
	}
	// The walk emits in key order per level, which differs from dotted
	// path order where a key holds a byte below '.'.
	slices.SortFunc(d.out, func(x, y Change) int { return strings.Compare(x.Path, y.Path) })
	return d.out, nil
}

// open positions the cursor pair of depth on the objects a and b. The
// first call makes room for a job config's two levels at once.
func (d *Differ) open(depth int, a, b []byte) {
	if n := 2*depth + 2; len(d.cs) < n {
		d.cs = append(d.cs, make([]keyCursor, max(n, 4)-len(d.cs))...)
	}
	d.cs[2*depth].open(a)
	d.cs[2*depth+1].open(b)
}

// objects diffs the two objects the cursor pair of depth is opened on,
// emitting paths under prefix. Every value is checked as it is read. A
// nested object is diffed on the next depth's pair, which may grow d.cs:
// this level's cursors are looked up afresh after it.
func (d *Differ) objects(prefix string, depth int) {
	for {
		a, b := &d.cs[2*depth], &d.cs[2*depth+1]
		if !a.live && !b.live {
			return
		}
		c := 0
		switch {
		case !b.live:
			c = -1
		case !a.live:
			c = 1
		default:
			c = bytes.Compare(a.key, b.key)
		}
		switch {
		case c < 0:
			if va := span(&a.r, depth+1); va != nil {
				d.emit(prefix, a.key, va, nil)
			}
			a.next()
		case c > 0:
			if vb := span(&b.r, depth+1); vb != nil {
				d.emit(prefix, b.key, nil, vb)
			}
			b.next()
		default:
			va, vb := span(&a.r, depth+1), span(&b.r, depth+1)
			switch {
			case va == nil || vb == nil || bytes.Equal(va, vb):
			case va[0] == vDoc && vb[0] == vDoc:
				path := join(prefix, a.key)
				d.open(depth+1, va, vb)
				d.objects(path, depth+1)
				a, b = &d.cs[2*depth], &d.cs[2*depth+1]
			case !leafEqual(va, vb):
				d.emit(prefix, a.key, va, vb)
			}
			a.next()
			b.next()
		}
	}
}

func (d *Differ) emit(prefix string, key, from, to []byte) {
	d.out = append(d.out, Change{Path: join(prefix, key), From: from, To: to})
}

// join is the dotted path of key under prefix; a top-level path is a
// view of the key.
func join(prefix string, key []byte) string {
	if prefix == "" {
		return asString(key)
	}
	return prefix + "." + asString(key)
}

// leafEqual reports whether two well-formed values, not both objects,
// are equal as JSON values.
func leafEqual(a, b []byte) bool {
	ta, tb := a[0], b[0]
	switch {
	case isNumber(ta) && isNumber(tb):
		return numbersEqual(a, b)
	case ta != tb:
		return false
	case ta == vArray:
		return jsonEqual(a, b)
	case ta == vString:
		return bytes.Equal(a, b)
	default: // null, true, false
		return true
	}
}

func isNumber(tag byte) bool { return tag == vInt || tag == vFloat }

// numbersEqual compares two numbers by value: integers exactly, an
// integer and a float as float64(integer).
func numbersEqual(a, b []byte) bool {
	if a[0] == vInt && b[0] == vInt {
		ra, rb := NewReader(a[1:]), NewReader(b[1:])
		return ra.Varint() == rb.Varint()
	}
	return float(a) == float(b)
}

func float(v []byte) float64 {
	r := NewReader(v[1:])
	if v[0] == vInt {
		return float64(r.Varint())
	}
	return r.Float()
}

// jsonEqual compares two arrays as their JSON texts after an
// encoding/json round trip, which is how such values compare as
// documents: numbers by value, invalid UTF-8 as U+FFFD.
func jsonEqual(a, b []byte) bool {
	na, okA := canonicalJSON(a)
	nb, okB := canonicalJSON(b)
	return okA && okB && bytes.Equal(na, nb)
}

func canonicalJSON(v Value) ([]byte, bool) {
	x, err := v.Decode()
	if err != nil {
		return nil, false
	}
	raw, err := json.Marshal(x)
	if err != nil {
		return nil, false
	}
	var back any
	if json.Unmarshal(raw, &back) != nil {
		return nil, false
	}
	out, err := json.Marshal(back)
	return out, err == nil
}
