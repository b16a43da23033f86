package config

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// FuzzMerge feeds arbitrary JSON documents through Algorithm 1 and checks
// the structural invariants that the State Syncer depends on: the merge
// never panics, is idempotent, and top-level scalar keys of the top layer
// always win.
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
		if _, err := cfg.ToDoc(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		_ = cfg.Validate()
	})
}

// FuzzSetGetPath checks path traversal never panics and set-then-get
// round-trips on fresh paths.
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

// toDocViaJSON is the reference ToDoc is defined against: the
// encoding/json round trip it used to be.
func toDocViaJSON(c *JobConfig) (Doc, error) {
	raw, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("marshal job config: %w", err)
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("unmarshal job config doc: %w", err)
	}
	return d, nil
}

// checkToDoc fails unless c.ToDoc() is what the round trip returns: the
// same document — Go types included — or the same error.
func checkToDoc(t *testing.T, c *JobConfig) {
	t.Helper()
	got, err := c.ToDoc()
	want, wantErr := toDocViaJSON(c)
	if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%+v: ToDoc err = %v, encoding/json err = %v", *c, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v:\n  direct        %#v\n  encoding/json %#v", *c, got, want)
	}
}

// FuzzToDocMatchesJSON holds the direct ToDoc to the encoding/json round
// trip for any config: integers beyond 2^53 and at the int64 limits,
// NaN, infinities and -0, empty nested structs, and invalid UTF-8.
func FuzzToDocMatchesJSON(f *testing.F) {
	c := validConfig()
	f.Add(c.Name, c.Package.Name, c.Package.Version, string(c.Operator), c.Input.Category,
		c.Output.Category, c.CheckpointDir, string(c.Enforcement), int64(c.TaskCount),
		int64(c.ThreadsPerTask), int64(c.Input.Partitions), int64(c.Priority), int64(c.MaxTaskCount),
		c.TaskResources.MemoryBytes, c.TaskResources.DiskBytes, c.TaskResources.NetworkBps,
		c.TaskResources.CPUCores, c.SLOSeconds, c.Stopped)
	f.Add("", "", "", "", "", "", "", "", int64(0), int64(0), int64(0), int64(0), int64(0),
		int64(0), int64(0), int64(0), math.Copysign(0, -1), 0.0, false)
	f.Add("\xff", "é\u2028<>&", "\xed\xa0\x80", "x", "", "c", "", "jvm", int64(-1), int64(math.MaxInt64),
		int64(math.MinInt64), int64(1<<53+1), int64(1), int64(1<<53+1), int64(-(1<<53)-1),
		int64(7), 1e-7, 1e21, true)
	f.Add("", "", "", "", "", "", "", "", int64(0), int64(0), int64(0), int64(0), int64(0),
		int64(0), int64(0), int64(0), math.NaN(), 90.0, false)
	f.Add("", "", "", "", "", "", "", "", int64(0), int64(0), int64(0), int64(0), int64(0),
		int64(0), int64(0), int64(0), 1.0, math.Inf(-1), false)
	f.Fuzz(func(t *testing.T, name, pkg, version, op, in, out, ckpt, enf string,
		tasks, threads, parts, prio, maxTasks, mem, disk, net int64, cpu, slo float64, stopped bool) {
		checkToDoc(t, &JobConfig{
			Name:           name,
			Package:        Package{Name: pkg, Version: version},
			TaskCount:      int(tasks),
			ThreadsPerTask: int(threads),
			TaskResources:  Resources{CPUCores: cpu, MemoryBytes: mem, DiskBytes: disk, NetworkBps: net},
			Operator:       Operator(op),
			Input:          Input{Category: in, Partitions: int(parts)},
			Output:         Output{Category: out},
			CheckpointDir:  ckpt,
			Enforcement:    MemoryEnforcement(enf),
			Priority:       int(prio),
			MaxTaskCount:   int(maxTasks),
			SLOSeconds:     slo,
			Stopped:        stopped,
		})
	})
}
