package config

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMergeTopOverridesScalars(t *testing.T) {
	bottom := Doc{"taskCount": 10, "name": "job1"}
	top := Doc{"taskCount": 15}
	got := Merge(bottom, top)
	if got["taskCount"] != 15 {
		t.Fatalf("taskCount = %v, want 15", got["taskCount"])
	}
	if got["name"] != "job1" {
		t.Fatalf("name = %v, want job1 (preserved from bottom)", got["name"])
	}
}

func TestMergeRecursesIntoNestedMaps(t *testing.T) {
	bottom := Doc{"package": Doc{"name": "tailer", "version": "1"}}
	top := Doc{"package": Doc{"version": "2"}}
	got := Merge(bottom, top)
	pkg := got["package"].(Doc)
	if pkg["name"] != "tailer" || pkg["version"] != "2" {
		t.Fatalf("merged package = %v", pkg)
	}
}

func TestMergeMapReplacesScalarAndViceVersa(t *testing.T) {
	// Top map over bottom scalar: top wins wholesale.
	got := Merge(Doc{"x": 5}, Doc{"x": Doc{"y": 1}})
	if m, ok := got["x"].(Doc); !ok || m["y"] != 1 {
		t.Fatalf("map-over-scalar = %v", got["x"])
	}
	// Top scalar over bottom map: top wins wholesale.
	got = Merge(Doc{"x": Doc{"y": 1}}, Doc{"x": 5})
	if got["x"] != 5 {
		t.Fatalf("scalar-over-map = %v", got["x"])
	}
}

func TestMergeDoesNotMutateInputs(t *testing.T) {
	bottom := Doc{"a": Doc{"b": 1}}
	top := Doc{"a": Doc{"c": 2}}
	out := Merge(bottom, top)
	out["a"].(Doc)["b"] = 99
	if bottom["a"].(Doc)["b"] != 1 {
		t.Fatal("Merge aliased bottom's nested map")
	}
	if _, ok := bottom["a"].(Doc)["c"]; ok {
		t.Fatal("Merge wrote into bottom")
	}
	if _, ok := top["a"].(Doc)["b"]; ok {
		t.Fatal("Merge wrote into top")
	}
}

func TestMergeHandlesJSONUnmarshaledMaps(t *testing.T) {
	// Docs that came through json.Unmarshal are map[string]any, not Doc.
	var bottom, top Doc
	if err := json.Unmarshal([]byte(`{"pkg":{"name":"a","v":1}}`), &bottom); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"pkg":{"v":2}}`), &top); err != nil {
		t.Fatal(err)
	}
	got := Merge(bottom, top)
	pkg, ok := asDoc(got["pkg"])
	if !ok {
		t.Fatalf("pkg is %T, want a map", got["pkg"])
	}
	if pkg["name"] != "a" || pkg["v"] != float64(2) {
		t.Fatalf("merged pkg = %v", pkg)
	}
}

func TestMergeLayersPrecedence(t *testing.T) {
	// Table I: Base < Provisioner < Scaler < Oncall.
	base := Doc{"taskCount": 10, "threads": 2, "pkg": "v1"}
	provisioner := Doc{"pkg": "v2"}
	scaler := Doc{"taskCount": 15}
	oncall := Doc{"taskCount": 30}
	got := MergeLayersShared(base, provisioner, scaler, oncall)
	if got["taskCount"] != 30 {
		t.Fatalf("oncall must win: taskCount = %v", got["taskCount"])
	}
	if got["pkg"] != "v2" {
		t.Fatalf("provisioner must override base: pkg = %v", got["pkg"])
	}
	if got["threads"] != 2 {
		t.Fatalf("base preserved: threads = %v", got["threads"])
	}
}

func TestMergeLayersSkipsNil(t *testing.T) {
	got := MergeLayersShared(nil, Doc{"a": 1}, nil)
	if got["a"] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestMergeEmptyTopIsIdentity(t *testing.T) {
	bottom := Doc{"a": 1, "b": Doc{"c": 2}}
	if !Equal(Merge(bottom, Doc{}), bottom) {
		t.Fatal("merge with empty top changed the doc")
	}
}

func TestGetSetPath(t *testing.T) {
	d := Doc{}
	d.SetPath("package.version", "v7").SetPath("taskCount", 4)
	if v, ok := d.GetPath("package.version"); !ok || v != "v7" {
		t.Fatalf("GetPath = %v,%v", v, ok)
	}
	if v, ok := d.GetPath("taskCount"); !ok || v != 4 {
		t.Fatalf("GetPath = %v,%v", v, ok)
	}
	if _, ok := d.GetPath("package.missing"); ok {
		t.Fatal("GetPath found missing key")
	}
	if _, ok := d.GetPath("taskCount.nested"); ok {
		t.Fatal("GetPath traversed through scalar")
	}
	// Empty parts are keys like any other.
	d.SetPath(".a.", 1)
	if v, ok := d[""].(Doc)["a"].(Doc)[""]; !ok || v != 1 {
		t.Fatalf("SetPath(%q) built %v", ".a.", d)
	}
	if v, ok := d.GetPath(".a."); !ok || v != 1 {
		t.Fatalf("GetPath(%q) = %v,%v", ".a.", v, ok)
	}
	// A walk over existing objects allocates nothing.
	if n := testing.AllocsPerRun(100, func() {
		d.GetPath("package.version")
		d.SetPath("package.version", "v8")
	}); n != 0 {
		t.Fatalf("path walk allocates %.0f objects", n)
	}
}

func TestCheckFinite(t *testing.T) {
	ok := Doc{"a": 1.5, "b": []any{int64(2), Doc{"c": float32(3)}}, "d": map[string]any{"e": nil}}
	if err := CheckFinite(ok); err != nil {
		t.Fatalf("finite doc rejected: %v", err)
	}
	for _, v := range []any{"s", int64(-3), nil, []any{1.5}} {
		if err := CheckFinite(v); err != nil {
			t.Fatalf("finite value %v rejected: %v", v, err)
		}
	}
	for _, v := range []any{math.NaN(), math.Inf(-1), []any{1.0, math.Inf(1)}} {
		if err := CheckFinite(v); err == nil {
			t.Fatalf("CheckFinite(%v) = nil, want an error", v)
		}
	}
	for path, d := range map[string]Doc{
		"sloSeconds":             {"sloSeconds": math.Inf(1)},
		"taskResources.cpuCores": {"taskResources": Doc{"cpuCores": math.NaN()}},
		"x[1].y":                 {"x": []any{1.0, map[string]any{"y": float32(math.Inf(-1))}}},
	} {
		err := CheckFinite(d)
		if err == nil || !strings.HasPrefix(err.Error(), path+":") {
			t.Errorf("%v: CheckFinite = %v, want an error at %s", d, err, path)
		}
	}
}

func TestEqualNormalizesNumbers(t *testing.T) {
	if !Equal(Doc{"n": 5}, Doc{"n": float64(5)}) {
		t.Fatal("int 5 != float64 5 under Equal")
	}
	if Equal(Doc{"n": 5}, Doc{"n": 6}) {
		t.Fatal("5 == 6 under Equal")
	}
}

func TestDiffDetectsLeafChanges(t *testing.T) {
	a := Doc{"taskCount": 10, "pkg": Doc{"v": "1", "name": "x"}, "gone": true}
	b := Doc{"taskCount": 15, "pkg": Doc{"v": "2", "name": "x"}, "new": "hi"}
	changes := Diff(a, b)
	paths := make(map[string]Change)
	for _, c := range changes {
		paths[c.Path] = c
	}
	if len(changes) != 4 {
		t.Fatalf("got %d changes %v, want 4", len(changes), changes)
	}
	if c := paths["taskCount"]; c.From != 10 || c.To != 15 {
		t.Fatalf("taskCount change = %+v", c)
	}
	if c := paths["pkg.v"]; c.From != "1" || c.To != "2" {
		t.Fatalf("pkg.v change = %+v", c)
	}
	if c := paths["gone"]; c.To != nil {
		t.Fatalf("gone change = %+v", c)
	}
	if c := paths["new"]; c.From != nil {
		t.Fatalf("new change = %+v", c)
	}
}

func TestDiffEqualDocsIsEmpty(t *testing.T) {
	a := Doc{"x": Doc{"y": 1}, "z": []any{1, 2}}
	if d := Diff(a, a.Clone()); len(d) != 0 {
		t.Fatalf("Diff of equal docs = %v", d)
	}
}

func TestDiffNumericNormalization(t *testing.T) {
	if d := Diff(Doc{"n": 5}, Doc{"n": float64(5)}); len(d) != 0 {
		t.Fatalf("int/float same value diffed: %v", d)
	}
}

// Property: merge is idempotent — Merge(x, x) == x.
func TestMergeIdempotentProperty(t *testing.T) {
	f := func(seed docSeed) bool {
		d := seed.doc()
		return Equal(Merge(d, d), d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any docs a,b, every key of b appears in Merge(a,b) with b's
// value when b's value is a scalar.
func TestMergeTopWinsProperty(t *testing.T) {
	f := func(sa, sb docSeed) bool {
		a, b := sa.doc(), sb.doc()
		m := Merge(a, b)
		for k, bv := range b {
			if _, isMap := asDoc(bv); isMap {
				continue
			}
			if !leafEqual(m[k], bv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Note: Algorithm 1's merge is NOT associative in general — if a key holds
// a scalar in one layer and a map in another, grouping changes the result.
// MergeLayersShared therefore always folds left from the bottom layer, exactly as
// the paper's precedence stack does. The associativity property DOES hold
// when no key changes kind across layers, which we verify here with
// same-shaped documents.
func TestMergeAssociativeForConsistentShapes(t *testing.T) {
	f := func(sa, sb, sc docSeed) bool {
		// Derive three docs from the same shape by using the same seed
		// structure but different values: kinds never flip.
		a, b, c := sa.doc(), sa.doc(), sa.doc()
		mutateLeaves(b, int(sb.Shape)+1)
		mutateLeaves(c, int(sc.Shape)+7)
		left := Merge(Merge(a, b), c)
		right := Merge(a, Merge(b, c))
		return Equal(left, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the alias-sharing layer fold is Algorithm 1 — a left fold of
// Merge from the bottom layer, kind flips across layers included — and
// writes into none of its inputs.
func TestMergeLayersSharedMatchesMergeFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		layers := []Doc{randomDoc(rng, 0), nil, randomDoc(rng, 0), randomDoc(rng, 0)}
		rng.Shuffle(len(layers), func(a, b int) { layers[a], layers[b] = layers[b], layers[a] })
		before := make([]Doc, len(layers))
		want := Doc{}
		for l, d := range layers {
			before[l] = d.Clone()
			if d != nil {
				want = Merge(want, d)
			}
		}
		if got := MergeLayersShared(layers...); !Equal(got, want) {
			t.Fatalf("layers %v:\n shared fold %v\n Merge fold  %v", layers, got, want)
		}
		for l, d := range layers {
			if d != nil && !Equal(d, before[l]) {
				t.Fatalf("layer %d modified by the merge: %v, was %v", l, d, before[l])
			}
		}
	}
}

// mutateLeaves adds delta to every integer leaf, keeping document shape.
func mutateLeaves(d Doc, delta int) {
	for k, v := range d {
		switch x := v.(type) {
		case Doc:
			mutateLeaves(x, delta)
		case int:
			d[k] = x + delta
		}
	}
}

// Property: Diff(a,b) is empty iff Equal(a,b).
func TestDiffEqualConsistencyProperty(t *testing.T) {
	f := func(sa, sb docSeed) bool {
		a, b := sa.doc(), sb.doc()
		return (len(Diff(a, b)) == 0) == Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// docSeed generates small random JSON documents for property tests.
type docSeed struct {
	Keys   []uint8
	Vals   []int16
	Nest   []bool
	Shape  uint8
	Nested *docSeed
}

func (s docSeed) doc() Doc {
	d := Doc{}
	keys := []string{"a", "b", "c", "d", "taskCount", "pkg"}
	for i, k := range s.Keys {
		key := keys[int(k)%len(keys)]
		var v any = 0
		if i < len(s.Vals) {
			v = int(s.Vals[i])
		}
		if i < len(s.Nest) && s.Nest[i] && s.Nested != nil {
			v = s.Nested.doc()
		}
		d[key] = v
	}
	return d
}

func TestLayerString(t *testing.T) {
	want := map[Layer]string{
		LayerBase: "base", LayerProvisioner: "provisioner",
		LayerScaler: "scaler", LayerOncall: "oncall", Layer(9): "layer(9)",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("Layer(%d).String() = %q, want %q", l, l.String(), s)
		}
	}
	if !LayerOncall.Valid() || Layer(9).Valid() {
		t.Fatal("Valid() wrong")
	}
	if got := Layers(); len(got) != 4 || got[0] != LayerBase || got[3] != LayerOncall {
		t.Fatalf("Layers() = %v", got)
	}
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPUCores: 2, MemoryBytes: 100, DiskBytes: 10, NetworkBps: 5}
	b := Resources{CPUCores: 1, MemoryBytes: 40, DiskBytes: 4, NetworkBps: 2}
	sum := a.Add(b)
	if sum.CPUCores != 3 || sum.MemoryBytes != 140 {
		t.Fatalf("Add = %+v", sum)
	}
	diff := a.Sub(b)
	if diff.CPUCores != 1 || diff.MemoryBytes != 60 {
		t.Fatalf("Sub = %+v", diff)
	}
	if diff.AnyNegative() {
		t.Fatal("AnyNegative false positive")
	}
	if !b.Sub(a).AnyNegative() {
		t.Fatal("AnyNegative missed negative")
	}
	half := a.Scale(0.5)
	if half.CPUCores != 1 || half.MemoryBytes != 50 {
		t.Fatalf("Scale = %+v", half)
	}
	if !b.Fits(a) || a.Fits(b) {
		t.Fatal("Fits wrong")
	}
	if !(Resources{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func validConfig() *JobConfig {
	return &JobConfig{
		Name:           "scuba/tailer1",
		Package:        Package{Name: "tailer", Version: "v1"},
		TaskCount:      4,
		ThreadsPerTask: 2,
		TaskResources:  Resources{CPUCores: 1, MemoryBytes: 1 << 30},
		Operator:       OpTailer,
		Input:          Input{Category: "scuba_cat", Partitions: 16},
		Output:         Output{Category: "scuba_out"},
		Enforcement:    EnforceCgroup,
		SLOSeconds:     90,
	}
}

func TestJobConfigValidateAcceptsGood(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestJobConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobConfig)
	}{
		{"empty name", func(c *JobConfig) { c.Name = "" }},
		{"name over the bound", func(c *JobConfig) { c.Name = strings.Repeat("n", MaxJobNameLen+1) }},
		{"no package", func(c *JobConfig) { c.Package = Package{} }},
		{"zero tasks", func(c *JobConfig) { c.TaskCount = 0 }},
		{"zero threads", func(c *JobConfig) { c.ThreadsPerTask = 0 }},
		{"no input", func(c *JobConfig) { c.Input.Category = "" }},
		{"zero partitions", func(c *JobConfig) { c.Input.Partitions = 0 }},
		{"more partitions than a task service lays out", func(c *JobConfig) { c.Input.Partitions = maxPartitions + 1 }},
		{"tasks exceed partitions", func(c *JobConfig) { c.TaskCount = 99 }},
		{"tasks exceed cap", func(c *JobConfig) { c.MaxTaskCount = 2 }},
		{"negative resources", func(c *JobConfig) { c.TaskResources.CPUCores = -1 }},
		{"NaN cpuCores", func(c *JobConfig) { c.TaskResources.CPUCores = math.NaN() }},
		{"infinite SLO", func(c *JobConfig) { c.SLOSeconds = math.Inf(1) }},
		{"NaN SLO", func(c *JobConfig) { c.SLOSeconds = math.NaN() }},
	}
	for _, tc := range cases {
		c := validConfig()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestJobConfigDocRoundTrip(t *testing.T) {
	c := validConfig()
	back, err := JobConfigFromDoc(jsonDoc(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, back) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", c, back)
	}
}

func TestScalerLayerOverridesTaskCountOnly(t *testing.T) {
	// The canonical paper scenario (§III-A): job at 10 tasks; Auto Scaler
	// sets 15; Oncall sets 30. Oncall wins, everything else intact.
	base := jsonDoc(t, validConfig())
	scaler := Doc{}.SetPath("taskCount", 15)
	oncall := Doc{}.SetPath("taskCount", 30)
	merged := MergeLayersShared(base, nil, scaler, oncall)
	cfg, err := JobConfigFromDoc(merged)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TaskCount != 30 {
		t.Fatalf("TaskCount = %d, want 30 (oncall precedence)", cfg.TaskCount)
	}
	if cfg.Package.Version != "v1" || cfg.Input.Partitions != 16 {
		t.Fatalf("unrelated fields disturbed: %+v", cfg)
	}
}

func TestOperatorStateful(t *testing.T) {
	for _, o := range []Operator{OpFilter, OpProject, OpTransform, OpTailer} {
		if o.Stateful() {
			t.Errorf("%s should be stateless", o)
		}
	}
	for _, o := range []Operator{OpAggregate, OpJoin} {
		if !o.Stateful() {
			t.Errorf("%s should be stateful", o)
		}
	}
}

// jsonFieldNames lists the JSON names of v's struct fields, in order.
func jsonFieldNames(v any) []string {
	typ := reflect.TypeOf(v)
	names := make([]string, typ.NumField())
	for i := range names {
		names[i], _, _ = strings.Cut(typ.Field(i).Tag.Get("json"), ",")
	}
	return names
}

// TestFieldTablesMatchStructTags pins JobConfigFromDoc's field tables to
// the structs' json tags: a field added to a struct but not to its table
// would silently stop decoding.
func TestFieldTablesMatchStructTags(t *testing.T) {
	var check func(typ reflect.Type, fields Fields)
	check = func(typ reflect.Type, fields Fields) {
		var names []string
		for i, f := range fields {
			names = append(names, f.name)
			if f.sub != nil && i < typ.NumField() {
				check(typ.Field(i).Type, f.sub)
			}
		}
		if want := jsonFieldNames(reflect.New(typ).Elem().Interface()); !reflect.DeepEqual(names, want) {
			t.Errorf("%s field table = %v, struct tags = %v", typ.Name(), names, want)
		}
	}
	check(reflect.TypeOf(JobConfig{}), jobConfigFields)
}

// TestJobConfigFromDocGoValues covers what the fuzz target cannot build
// from JSON text: Go-typed integers, Doc-typed nesting and strings that
// are not valid UTF-8, all still held to the encoding/json round trip.
func TestJobConfigFromDocGoValues(t *testing.T) {
	docs := []Doc{
		nil,
		{},
		{"name": "j", "taskCount": 4, "priority": int64(-3), "sloSeconds": 90, "stopped": true},
		{"package": Doc{"name": "p", "version": "v\xff\xfe1"}, "checkpointDir": "/ckpt/\xed\xa0\x80/$JOB"},
		{"input": map[string]any{"category": "c", "partitions": int64(1) << 40}, "output": Doc{"category": nil}},
		{"taskResources": Doc{"cpuCores": 2, "memoryBytes": float64(1 << 30), "diskBytes": int64(math.MaxInt64), "networkBps": math.MinInt64}},
		{"taskResources": Doc{"memoryBytes": 9223372036854774784.0}},
		{"taskResources": Doc{"memoryBytes": 9223372036854775808.0}},
		{"taskCount": true},
		{"stopped": 1},
		{"operator": 3.0},
		{"input": "scalar"},
		{"input": []any{Doc{"partitions": 1}}},
		{"name\xff": 1, "unknown": []any{1, "x", nil}},
	}
	for _, d := range docs {
		checkAgainstJSON(t, d)
	}
	cfg, err := JobConfigFromDoc(docs[3])
	if err != nil || cfg.Package.Version != "v\ufffd\ufffd1" {
		t.Fatalf("invalid UTF-8 not replaced byte for byte: %+v, %v", cfg, err)
	}
}

// TestOwnStringsCoversEveryString: after OwnStrings no string field of a
// JobConfig views the buffer its strings were cut from.
func TestOwnStringsCoversEveryString(t *testing.T) {
	var c JobConfig
	buf := strings.Repeat("abcdefgh", 32)
	var fields []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.String:
				fields = append(fields, f)
			case reflect.Struct:
				walk(f)
			}
		}
	}
	walk(reflect.ValueOf(&c).Elem())
	for i, f := range fields {
		f.SetString(buf[i : i+3])
	}
	want := c
	c.OwnStrings()
	if c != want {
		t.Fatalf("OwnStrings changed the config: %+v, want %+v", c, want)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	for _, f := range fields {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(f.String()))); p >= lo && p < lo+uintptr(len(buf)) {
			t.Errorf("a string field %q still views the buffer", f.String())
		}
	}
	if len(fields) != 8 {
		t.Fatalf("JobConfig has %d string fields; OwnStrings moves 8", len(fields))
	}
}
