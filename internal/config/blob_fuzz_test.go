package config_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/wire"
)

// The blob forms of layering and diffing, held to the map forms they
// replaced: wire.MergeBlobs to encode ∘ MergeLayersShared ∘ decode, and
// wire.DiffBlobs to Differ.Diff of the decoded documents.

func mustEncode(t testing.TB, d config.Doc) []byte {
	t.Helper()
	b, err := wire.EncodeDoc(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// renameKey returns b with the first occurrence of the encoded key from
// (a length byte and the bytes) renamed to to, of the same length.
func renameKey(t testing.TB, b []byte, from, to string) []byte {
	t.Helper()
	old := append([]byte{byte(len(from))}, from...)
	i := bytes.Index(b, old)
	if i < 0 || len(from) != len(to) {
		t.Fatalf("no key %q in %x", from, b)
	}
	out := bytes.Clone(b)
	copy(out[i+1:], to)
	return out
}

// nest returns a document holding levels nested documents under "x",
// the innermost holding a number: its value sits at depth levels+1.
func nest(levels int) config.Doc {
	var v any = int64(1)
	for i := 0; i < levels; i++ {
		v = config.Doc{"x": v}
	}
	return config.Doc{"x": v}
}

// blobSeeds are the documents both fuzz targets start from.
func blobSeeds(t testing.TB) [][]byte {
	ab := mustEncode(t, config.Doc{"a": int64(1), "b": int64(2)})
	return [][]byte{
		nil,                         // an unset layer
		mustEncode(t, config.Doc{}), // an empty one
		mustEncode(t, config.Doc{"taskCount": int64(8), "package": config.Doc{"name": "tailer", "version": "v1"},
			"taskResources": config.Doc{"cpuCores": 0.5, "memoryBytes": int64(1 << 30)}}),
		mustEncode(t, config.Doc{"taskCount": 8.0, "package": config.Doc{"version": "v2"}}),
		mustEncode(t, config.Doc{"taskCount": math.Copysign(0, -1), "zero": int64(0), "neg": math.Copysign(0, -1)}),
		mustEncode(t, config.Doc{"max": int64(math.MaxInt64), "min": int64(math.MinInt64), "big": 9.223372036854776e18}),
		mustEncode(t, config.Doc{"package": "flat", "taskResources": int64(3)}), // scalars where objects are
		mustEncode(t, config.Doc{"taskCount": config.Doc{"nested": true}}),      // an object over a scalar
		mustEncode(t, config.Doc{"list": []any{int64(1), 1.0, "two", nil, config.Doc{"k": false}}}),
		mustEncode(t, config.Doc{"list": []any{1.0, int64(1), "two", nil, config.Doc{"k": false}}}),
		mustEncode(t, config.Doc{"name": "bad\xffutf8", "a.b": int64(1), "a": config.Doc{"b": int64(2)}}),
		mustEncode(t, config.Doc{"null": nil, "name": "\xfe"}),
		mustEncode(t, nest(63)),    // the deepest document the codec takes
		mustEncode(t, nest(64)),    // one level too deep
		renameKey(t, ab, "b", "a"), // a duplicate key
		renameKey(t, ab, "a", "c"), // keys out of order
		append(bytes.Clone(ab), 0), // a trailing byte
	}
}

// FuzzMergeBlobs: MergeBlobs of four layers is the canonical encoding of
// MergeLayersShared of the decoded layers, and fails exactly when a
// layer does not decode.
func FuzzMergeBlobs(f *testing.F) {
	seeds := blobSeeds(f)
	for i := range seeds {
		f.Add(seeds[i], seeds[(i+2)%len(seeds)], seeds[(i+5)%len(seeds)], seeds[(i+7)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, l0, l1, l2, l3 []byte) {
		layers := []wire.Blob{l0, l1, l2, l3}
		var docs [4]config.Doc
		var decodeErr error
		for i, l := range layers {
			if len(l) == 0 {
				continue
			}
			d, err := wire.DecodeDocBlob(l)
			if err != nil {
				decodeErr = err
				break
			}
			docs[i] = d
		}
		got, err := wire.MergeBlobs(layers)
		if decodeErr != nil {
			if err == nil {
				t.Fatalf("MergeBlobs accepted a layer DecodeDocBlob rejects (%v): %x", decodeErr, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("MergeBlobs: %v", err)
		}
		want := mustEncode(t, config.MergeLayersShared(docs[0], docs[1], docs[2], docs[3]))
		if !bytes.Equal(got, want) {
			t.Fatalf("MergeBlobs = %x\nwant         %x (%v)", got, want, docs)
		}
	})
}

// editValue is the value a FuzzEditBlob input writes: one of each kind a
// document holds, chosen by kind, plus one EncodeDoc refuses.
func editValue(kind byte, num float64, s string, obj []byte) any {
	switch kind % 9 {
	case 0:
		return nil
	case 1:
		return num > 0
	case 2:
		return int(num)
	case 3:
		return num
	case 4:
		return s
	case 5:
		d, err := wire.DecodeDocBlob(obj)
		if err != nil {
			return config.Doc{}
		}
		return d
	case 6:
		return []any{num, s, config.Doc{s: num}}
	case 7:
		return []any{float32(num)} // no document value
	default:
		return map[string]any{s: int64(num)}
	}
}

// FuzzEditBlob: EditBlob of EncodeDoc(d) at path to v is exactly the
// canonical encoding of d.SetPath(path, v), and fails exactly where that
// encoding fails; so is a second edit at path2, with the first, unless
// the two overlap, which is an error. A document that does not decode is
// an error too.
func FuzzEditBlob(f *testing.F) {
	nested := mustEncode(f, config.Doc{"y": int64(1), "z": config.Doc{}})
	add := func(doc []byte, path, path2 string, kind byte, num float64) {
		f.Add(doc, path, path2, kind, num, "s", nested)
	}
	sample := mustEncode(f, config.Doc{"taskCount": int64(8), "package": config.Doc{"name": "tailer", "version": "v1"},
		"taskResources": config.Doc{"cpuCores": 0.5}, "list": []any{int64(1), "two"}})
	deep := strings.Repeat("x.", 64) + "y"                                                                             // one level past the deepest document the codec takes
	add(sample, "taskCount", "", 2, 9)                                                                                 // top level
	add(sample, "package.version", "", 4, 0)                                                                           // nested
	add(sample, "taskResources.cpuCores", "taskResources.memoryBytes", 3, 1.5)                                         // siblings, one new
	add(mustEncode(f, config.Doc{"package": "flat"}), "package.version", "", 4, 0)                                     // through a scalar
	add(sample, "package", "", 5, 0)                                                                                   // an object over an object
	add(sample, "list", "", 6, 2)                                                                                      // an array
	add(sample, "list.x", "", 1, 1)                                                                                    // through an array
	add(mustEncode(f, config.Doc{"a": config.Doc{"b": int64(1)}, "a-": int64(2), "a.b": int64(3)}), "a.c", "a-", 2, 4) // a byte below '.'
	add(sample, "Aardvark", "", 0, 0)                                                                                  // a new first key
	add(sample, "zzz", "", 2, -3)                                                                                      // a new last key
	add(sample, "", "a..b", 2, 1)                                                                                      // empty keys
	add(sample, "package", "package.version", 4, 0)                                                                    // overlapping edits
	add(sample, "taskResources.cpuCores", "", 3, math.NaN())
	add(sample, "sloSeconds", "", 3, math.Inf(1))
	add(sample, "taskResources.cpuCores", "x", 3, math.Inf(-1))
	add(sample, "taskCount", "", 7, 1)           // no document value
	add(mustEncode(f, nest(63)), deep, "", 2, 1) // the depth cap
	add(mustEncode(f, nest(62)), deep[2:], "", 5, 0)
	for _, seed := range blobSeeds(f) {
		add(seed, "package.version", "taskCount", 4, 0)
	}
	f.Fuzz(func(t *testing.T, doc []byte, path, path2 string, kind byte, num float64, s string, obj []byte) {
		v := editValue(kind, num, s, obj)
		edits := []wire.Edit{{Path: path, Value: v}}
		if path2 != "" {
			edits = append(edits, wire.Edit{Path: path2, Value: s})
		}
		d := config.Doc{}
		if len(doc) > 0 {
			var err error
			if d, err = wire.DecodeDocBlob(doc); err != nil {
				if got, err := wire.EditBlob(doc, edits...); err == nil {
					t.Fatalf("EditBlob edited a document DecodeDocBlob rejects (%v): %x", err, got)
				}
				return
			}
			doc = mustEncode(t, d)
		}
		got, err := wire.EditBlob(doc, edits...)
		if len(edits) == 2 {
			if p, q := path, path2; p == q || strings.HasPrefix(q, p+".") || strings.HasPrefix(p, q+".") {
				if err == nil || !strings.Contains(err.Error(), "overlap") {
					t.Fatalf("edits at %q and %q overlap: EditBlob = %x, %v", p, q, got, err)
				}
				return
			}
			d.SetPath(path2, s)
		}
		want, wantErr := wire.EncodeDoc(d.SetPath(path, v))
		if wantErr != nil {
			if err == nil {
				t.Fatalf("EditBlob accepted what EncodeDoc refuses (%v): %x", wantErr, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("EditBlob: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EditBlob = %x\nwant       %x (%v)", got, want, d)
		}
	})
}

// FuzzDiffBlobs: DiffBlobs reports the paths Differ.Diff reports for the
// decoded documents, with the same values, and fails exactly when a
// document does not decode. Documents holding a NaN are skipped: the
// store holds finite numbers only, and a byte-equal NaN counts as equal
// to itself in a blob.
func FuzzDiffBlobs(f *testing.F) {
	seeds := blobSeeds(f)
	for i := range seeds {
		f.Add(seeds[i], seeds[(i+1)%len(seeds)])
		f.Add(seeds[i], seeds[i])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		da, errA := wire.DecodeDocBlob(a)
		db, errB := wire.DecodeDocBlob(b)
		got, err := wire.DiffBlobs(a, b)
		if errA != nil || errB != nil {
			if err == nil {
				t.Fatalf("DiffBlobs accepted a document DecodeDocBlob rejects (%v, %v)", errA, errB)
			}
			return
		}
		if err != nil {
			t.Fatalf("DiffBlobs: %v", err)
		}
		if hasNaN(da) || hasNaN(db) {
			return
		}
		var d config.Differ
		want := d.Diff(da, db)
		gotS := make([]string, len(got))
		for i, ch := range got {
			from, errF := ch.From.Decode()
			to, errT := ch.To.Decode()
			if errF != nil || errT != nil {
				t.Fatalf("change %s: values do not decode: %v, %v", ch.Path, errF, errT)
			}
			gotS[i] = fmt.Sprintf("%s: %#v -> %#v", ch.Path, from, to)
		}
		wantS := make([]string, len(want))
		for i, ch := range want {
			wantS[i] = fmt.Sprintf("%s: %#v -> %#v", ch.Path, ch.From, ch.To)
		}
		// Both are sorted by path; a path two keys spell alike ("a.b") may
		// come in either order.
		if !slices.IsSortedFunc(got, func(x, y wire.Change) int { return strings.Compare(x.Path, y.Path) }) {
			t.Fatalf("DiffBlobs is not sorted by path: %q", gotS)
		}
		slices.Sort(gotS)
		slices.Sort(wantS)
		if !slices.Equal(gotS, wantS) {
			t.Fatalf("DiffBlobs:\n  %q\nDiffer.Diff:\n  %q", gotS, wantS)
		}
	})
}

func hasNaN(v any) bool {
	switch x := v.(type) {
	case float64:
		return math.IsNaN(x)
	case []any:
		return slices.ContainsFunc(x, hasNaN)
	case config.Doc:
		for _, el := range x {
			if hasNaN(el) {
				return true
			}
		}
	}
	return false
}

// TestBlobSeedsReachBothOutcomes keeps the seed set honest: it holds
// documents each fuzz target must accept and ones it must reject.
func TestBlobSeedsReachBothOutcomes(t *testing.T) {
	var good, bad int
	for _, s := range blobSeeds(t) {
		if len(s) == 0 {
			continue
		}
		if _, err := wire.DecodeDocBlob(s); err != nil {
			bad++
		} else {
			good++
		}
	}
	if good < 10 || bad != 4 {
		t.Fatalf("%d seeds decode and %d do not; want at least 10 and 4", good, bad)
	}
}
