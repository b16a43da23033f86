package config

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzMerge is the map merge oracle's self-check: it feeds arbitrary JSON
// documents through Merge and checks the invariants of Algorithm 1 the
// blob merge is held to — the merge never panics, is idempotent, and
// top-level scalar keys of the top layer always win.
func FuzzMerge(f *testing.F) {
	f.Add(`{"taskCount":10}`, `{"taskCount":15}`)
	f.Add(`{"pkg":{"name":"t","v":1}}`, `{"pkg":{"v":2}}`)
	f.Add(`{"a":[1,2,3]}`, `{"a":{"b":1}}`)
	f.Add(`{}`, `{}`)
	f.Add(`{"x":null}`, `{"x":{"y":"z"}}`)
	f.Fuzz(func(t *testing.T, bottomJSON, topJSON string) {
		var bottom, top Doc
		if json.Unmarshal([]byte(bottomJSON), &bottom) != nil ||
			json.Unmarshal([]byte(topJSON), &top) != nil {
			t.Skip()
		}
		merged := Merge(bottom, top)
		if !Equal(Merge(merged, merged), merged) {
			t.Fatalf("merge not idempotent for %q + %q", bottomJSON, topJSON)
		}
		for k, tv := range top {
			if _, isMap := asDoc(tv); isMap {
				continue
			}
			if !leafEqual(merged[k], tv) {
				t.Fatalf("top scalar %q lost: %v vs %v", k, merged[k], tv)
			}
		}
		// Diff of a doc against itself is always empty.
		if d := Diff(merged, merged.Clone()); len(d) != 0 {
			t.Fatalf("self-diff nonempty: %v", d)
		}
	})
}

// jobConfigViaJSON is the reference JobConfigFromDoc is defined against:
// the encoding/json round trip it used to be.
func jobConfigViaJSON(d Doc) (*JobConfig, error) {
	raw, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	var c JobConfig
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// checkAgainstJSON fails unless JobConfigFromDoc(d) agrees with the
// round trip in error-ness and, when both decode, in value.
func checkAgainstJSON(t *testing.T, d Doc) *JobConfig {
	t.Helper()
	got, err := JobConfigFromDoc(d)
	want, wantErr := jobConfigViaJSON(d)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%#v: direct decode err = %v, encoding/json err = %v", d, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%#v:\n  direct        %+v\n  encoding/json %+v", d, got, want)
	}
	return got
}

// withIntegers returns a copy of v in which every float64 that holds an
// int64 value exactly is replaced by conv of it — the shape a document
// has after the wire codec (int64) or when built in Go (int).
func withIntegers(v any, conv func(int64) any) any {
	switch x := v.(type) {
	case float64:
		if x == math.Trunc(x) && x >= -(1<<63) && x < 1<<63 {
			return conv(int64(x))
		}
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = withIntegers(e, conv)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = withIntegers(e, conv)
		}
		return out
	}
	return v
}

// FuzzJobConfigFromDoc holds the typed decoder to its definition: for any
// document, as decoded from JSON (all numbers float64), as the wire
// delivers it (integral numbers int64) and as Go code builds it (int),
// it agrees with the encoding/json round trip — and decoded configs
// re-encode.
func FuzzJobConfigFromDoc(f *testing.F) {
	f.Add(`{"name":"j","taskCount":4}`)
	f.Add(`{"taskCount":"not-a-number"}`)
	f.Add(`{"taskResources":{"cpuCores":1.5}}`)
	f.Add(`{"input":{"category":"c","partitions":8}}`)
	f.Add(`{"taskCount":3.5}`)
	f.Add(`{"taskCount":1e21}`)
	f.Add(`{"priority":-0}`)
	f.Add(`{"taskCount":"4"}`)
	f.Add(`{"output":[1]}`)
	f.Add(`{"stopped":null}`)
	// Keys that collide after case folding apply in sorted key order and
	// nested objects merge: category c, partitions 8.
	f.Add(`{"INPUT":null,"Input":{"partitions":9},"input":{"category":"c","partitions":8}}`)
	f.Add(`{"Name":"a","name":null,"NAME":"b","taſkCount":2,"tasKCount":3}`)
	f.Add(`{"taskResources":{"memoryBytes":9223372036854774784,"diskBytes":-9223372036854775808,"networkBps":9223372036854775808}}`)
	f.Add(`{"sloSeconds":9007199254740993,"taskResources":{"cpuCores":-0,"CPUCORES":2}}`)
	f.Add(`{"package":{"name":7}}`)
	f.Add(`{"package":"p","unknown":[{"deep":[1,2,{"x":null}]}]}`)
	f.Fuzz(func(t *testing.T, docJSON string) {
		var d Doc
		if json.Unmarshal([]byte(docJSON), &d) != nil {
			t.Skip()
		}
		cfg := checkAgainstJSON(t, d)
		checkAgainstJSON(t, withIntegers(map[string]any(d), func(n int64) any { return n }).(map[string]any))
		checkAgainstJSON(t, withIntegers(map[string]any(d), func(n int64) any { return int(n) }).(map[string]any))
		if cfg == nil {
			return // undecodable is fine; disagreeing or panicking is not
		}
		// Decoded configs re-encode without error.
		if _, err := json.Marshal(cfg); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		_ = cfg.Validate()
	})
}

// FuzzSetGetPath is the path oracles' self-check: traversal never panics
// and SetPath then GetPath round-trips on fresh paths.
func FuzzSetGetPath(f *testing.F) {
	f.Add("a.b.c", 5)
	f.Add("taskCount", 10)
	f.Add("", 0)
	f.Add("...", 1)
	f.Fuzz(func(t *testing.T, path string, value int) {
		d := Doc{}
		d.SetPath(path, value)
		got, ok := d.GetPath(path)
		if !ok {
			t.Fatalf("SetPath(%q) then GetPath lost the value", path)
		}
		if got != value {
			t.Fatalf("round trip: got %v want %v", got, value)
		}
	})
}

// jsonDoc is c as encoding/json's round trip makes it a Doc: json.Marshal,
// then json.Unmarshal — nested objects as map[string]any, every number a
// float64.
func jsonDoc(t *testing.T, c *JobConfig) Doc {
	t.Helper()
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal job config: %v", err)
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("unmarshal job config doc: %v", err)
	}
	return d
}
