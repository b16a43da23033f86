package wire

import (
	"bytes"
	"testing"

	"repro/internal/config"
)

// TestDifferAllocs: a warm Differ allocates nothing to compare equal
// documents and only the dotted path of a nested change — a package
// release's "package.version" — to report one. Its key cursors are its
// own scratch, not the heap's.
func TestDifferAllocs(t *testing.T) {
	encode := func(d config.Doc) Blob {
		b, err := EncodeDoc(d)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := encode(sampleDoc())
	same := bytes.Clone(a)
	released := sampleDoc()
	released["package"].(config.Doc)["version"] = "v8"
	b := encode(released)

	var d Differ
	if _, err := d.Diff(a, b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if out, err := d.Diff(a, same); err != nil || len(out) != 0 {
			t.Fatalf("equal documents: %v, %v", out, err)
		}
	}); n != 0 {
		t.Fatalf("diffing equal documents allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if out, err := d.Diff(a, b); err != nil || len(out) != 1 || out[0].Path != "package.version" {
			t.Fatalf("release: %v, %v", out, err)
		}
	}); n != 1 {
		t.Fatalf("diffing a package release allocates %.1f objects, want 1 (its path)", n)
	}
}
