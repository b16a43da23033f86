package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/config"
)

// checkJobConfigBlob fails unless DecodeJobConfigBlob(blob) is what it is
// defined as — DecodeDocBlob then config.JobConfigFromDoc — in whether the
// blob is malformed, in whether the document is a JobConfig, and in the
// value. A malformed blob is a nil config and ErrMalformed; a document
// that is no JobConfig, exactly when JobConfigFromDoc errs, is a nil
// config and an error that does not wrap ErrMalformed. It reports which
// of the three outcomes blob had.
func checkJobConfigBlob(t testing.TB, blob []byte) (malformed, unfit bool) {
	t.Helper()
	got, err := DecodeJobConfigBlob(blob)
	doc, docErr := DecodeDocBlob(blob)
	if errors.Is(err, ErrMalformed) != (docErr != nil) {
		t.Fatalf("blob %x: typed decode err = %v, document decode err = %v", blob, err, docErr)
	}
	if docErr != nil {
		if got != nil {
			t.Fatalf("blob %x: typed decode = %+v, %v; want nil and ErrMalformed", blob, got, err)
		}
		return true, false
	}
	want, cfgErr := config.JobConfigFromDoc(doc)
	if (err != nil) != (cfgErr != nil) || (got == nil) != (cfgErr != nil) {
		t.Fatalf("blob %x (%v): typed decode = %+v, %v; JobConfigFromDoc err = %v", blob, doc, got, err, cfgErr)
	}
	// %#v, not reflect.DeepEqual: a NaN cpuCores is the same value on
	// both sides, and the wire carries NaN faithfully.
	if got != nil && fmt.Sprintf("%#v", *got) != fmt.Sprintf("%#v", *want) {
		t.Fatalf("blob %x (%v):\n  typed       %#v\n  via the doc %#v", blob, doc, *got, *want)
	}
	return false, got == nil
}

func encodeDoc(t testing.TB, d config.Doc) []byte {
	t.Helper()
	var e Encoder
	if err := e.AppendDoc(d); err != nil {
		t.Fatal(err)
	}
	return e.Buf
}

// nested returns a document whose "unknown" key holds levels nested
// documents, the innermost one holding a value: the value sits at depth
// levels+1 of the blob.
func nested(levels int) config.Doc {
	var v any = int64(1)
	for i := 0; i < levels; i++ {
		v = config.Doc{"x": v}
	}
	return config.Doc{"name": "deep", "unknown": v}
}

// jobConfigBlobSeeds are encoder output covering the decode rules: a full
// config, case-variant keys, kind mismatches, nulls, invalid UTF-8, the
// float/integer boundaries, nesting at maxDepth ± 1 and trailing bytes.
func jobConfigBlobSeeds(t testing.TB) [][]byte {
	full := jsonDoc(t, sampleConfig())
	docs := []config.Doc{
		full,
		sampleDoc(),
		{},
		{"Name": "upper", "name": "lower", "NAME": "shout"},
		{"taskResources": config.Doc{"cpuCores": 1.5, "CPUCORES": 2.5}, "TaskResources": config.Doc{"memoryBytes": int64(7)}},
		{"Input": config.Doc{"partitions": int64(9)}, "input": config.Doc{"category": "c"}, "INPUT": nil},
		{"taſkCount": int64(2), "tasKCount": int64(3)},
		{"taskCount": "4"},
		{"name": int64(4)},
		{"stopped": int64(1)},
		{"package": "p"},
		{"output": []any{int64(1)}},
		{"input": config.Doc{"partitions": true}},
		{"taskCount": 3.5},
		{"name": nil, "package": nil, "stopped": nil, "taskResources": config.Doc{"cpuCores": nil}},
		{"name": "bad\xff\xfeutf8", "package": config.Doc{"version": "\xed\xa0\x80"}, "na\xffme": "key"},
		{"taskCount": float64(1 << 53), "priority": float64(1<<53 + 2), "sloSeconds": float64(1<<53 + 1)},
		{"taskCount": 1e21},
		{"taskResources": config.Doc{"memoryBytes": 9223372036854775808.0, "diskBytes": int64(math.MinInt64)}},
		{"taskResources": config.Doc{"cpuCores": math.NaN(), "networkBps": math.Inf(1)}},
		nested(maxDepth - 2),
		nested(maxDepth - 1),
		nested(maxDepth),
	}
	var seeds [][]byte
	for _, d := range docs {
		seeds = append(seeds, encodeDoc(t, d))
	}
	seeds = append(seeds,
		append(encodeDoc(t, full), 0),               // trailing byte
		encodeDoc(t, full)[:40],                     // truncated
		[]byte{vArray, 1, vNil},                     // not a document
		[]byte{vDoc, 2, 1, 'a', vNil, 1, 'a', vNil}, // duplicate key
	)
	return seeds
}

// TestJobConfigBlobSeeds: every seed of FuzzJobConfigBlob agrees, and the
// seeds reach all three outcomes — including the depth cap from both
// sides.
func TestJobConfigBlobSeeds(t *testing.T) {
	var n [3]int
	for _, b := range jobConfigBlobSeeds(t) {
		switch malformed, unfit := checkJobConfigBlob(t, b); {
		case malformed:
			n[0]++
		case unfit:
			n[1]++
		default:
			n[2]++
		}
	}
	if n[0] == 0 || n[1] == 0 || n[2] == 0 {
		t.Fatalf("seeds reach %d malformed, %d unfit, %d decoded blobs; want every outcome", n[0], n[1], n[2])
	}
	if m, _ := checkJobConfigBlob(t, encodeDoc(t, nested(maxDepth-1))); m {
		t.Fatal("a value at maxDepth was rejected")
	}
	if m, _ := checkJobConfigBlob(t, encodeDoc(t, nested(maxDepth))); !m {
		t.Fatal("a value past maxDepth was accepted")
	}
}

// randomValue builds a document value biased towards the JobConfig
// schema: its field names and case variants of them, values of every
// kind, and a few nested levels.
func randomValue(rng *rand.Rand, depth int) any {
	switch rng.IntN(10) {
	case 0:
		return nil
	case 1:
		return rng.IntN(2) == 0
	case 2:
		return []int64{0, 1, -1, 8, 64, 1 << 40, math.MaxInt64, math.MinInt64}[rng.IntN(8)]
	case 3:
		return []float64{0, 2.5, -0.5, 8, 1 << 53, 1<<53 + 1, 1e21, 9223372036854775807.0, -9223372036854775808.0}[rng.IntN(9)]
	case 4, 5:
		return []string{"", "tailer", "v7", "/ckpt/$JOB", "\xff", "é"}[rng.IntN(6)]
	case 6:
		if depth < 3 {
			return []any{randomValue(rng, depth+1), randomValue(rng, depth+1)}
		}
		return nil
	default:
		if depth < 3 {
			return randomDoc(rng, depth+1)
		}
		return int64(rng.IntN(4))
	}
}

func randomDoc(rng *rand.Rand, depth int) config.Doc {
	keys := []string{
		"name", "Name", "NAME", "package", "Package", "version", "taskCount", "TASKCOUNT",
		"threadsPerTask", "taskResources", "cpuCores", "CPUCores", "memoryBytes", "diskBytes",
		"networkBps", "operator", "input", "Input", "category", "partitions", "output",
		"checkpointDir", "enforcement", "priority", "maxTaskCount", "sloSeconds", "stopped",
		"unknown", "",
	}
	d := config.Doc{}
	for n := rng.IntN(6); n > 0; n-- {
		d[keys[rng.IntN(len(keys))]] = randomValue(rng, depth)
	}
	return d
}

// TestJobConfigBlobMatchesDocDecode is FuzzJobConfigBlob's property on a
// fixed, seeded stream: schema-shaped random documents, each encoded and
// then also damaged — a byte flipped, the blob cut short or extended.
func TestJobConfigBlobMatchesDocDecode(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 20260925))
	var outcomes [3]int
	for i := 0; i < 4000; i++ {
		blob := encodeDoc(t, randomDoc(rng, 0))
		switch rng.IntN(4) {
		case 1:
			blob[rng.IntN(len(blob))] ^= byte(1 + rng.IntN(255))
		case 2:
			blob = blob[:rng.IntN(len(blob))]
		case 3:
			blob = append(blob, byte(rng.IntN(8)))
		}
		switch malformed, unfit := checkJobConfigBlob(t, blob); {
		case malformed:
			outcomes[0]++
		case unfit:
			outcomes[1]++
		default:
			outcomes[2]++
		}
	}
	t.Logf("malformed %d, not a JobConfig %d, decoded %d", outcomes[0], outcomes[1], outcomes[2])
	if outcomes[0] == 0 || outcomes[1] == 0 || outcomes[2] == 0 {
		t.Fatalf("outcomes %v: the stream does not reach every case", outcomes)
	}
}

// FuzzJobConfigBlob holds DecodeJobConfigBlob to its definition for any
// bytes: DecodeDocBlob then config.JobConfigFromDoc, in whether the blob
// is malformed, in whether the document is a JobConfig — and in the
// error that tells the two apart — and in value.
func FuzzJobConfigBlob(f *testing.F) {
	for _, b := range jobConfigBlobSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		checkJobConfigBlob(t, blob)
	})
}

// TestDocKeysStrictlyAscending: a document whose keys repeat or descend,
// at the top level or nested, is malformed to both document decoders,
// though every key and value in it is well formed.
func TestDocKeysStrictlyAscending(t *testing.T) {
	doc := func(pairs ...[]byte) []byte {
		b := append([]byte{vDoc}, AppendUvarint(nil, uint64(len(pairs)))...)
		for _, p := range pairs {
			b = append(b, p...)
		}
		return b
	}
	pair := func(key string, value []byte) []byte {
		return append(AppendString(nil, key), value...)
	}
	str := func(s string) []byte { return append([]byte{vString}, AppendString(nil, s)...) }
	cases := map[string][]byte{
		"duplicate":        doc(pair("name", str("a")), pair("name", str("b"))),
		"descending":       doc(pair("taskCount", []byte{vInt, 2}), pair("name", str("a"))),
		"nested duplicate": doc(pair("package", doc(pair("name", str("p")), pair("name", str("q"))))),
		"nested descending": doc(pair("name", str("a")),
			pair("unknown", doc(pair("b", []byte{vNil}), pair("a", []byte{vNil})))),
		"empty key twice": doc(pair("", []byte{vNil}), pair("", []byte{vNil})),
	}
	for name, b := range cases {
		if _, err := DecodeDocBlob(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: DecodeDocBlob err = %v, want ErrMalformed", name, err)
		}
		if cfg, err := DecodeJobConfigBlob(b); !errors.Is(err, ErrMalformed) || cfg != nil {
			t.Errorf("%s: DecodeJobConfigBlob = %+v, %v; want ErrMalformed", name, cfg, err)
		}
	}
	ascending := doc(pair("", []byte{vNil}), pair("Name", str("A")), pair("name", str("a")))
	if cfg, err := DecodeJobConfigBlob(ascending); err != nil || cfg == nil || cfg.Name != "a" {
		t.Fatalf("ascending keys: %+v, %v; want name a", cfg, err)
	}
}

// docOf is the document AppendJobConfig stands for: encoding/json's
// round trip of cfg — json.Marshal, then json.Unmarshal into a
// config.Doc: its keys, omissions and strings — with every non-zero
// integer field as the integer itself, as the scaler's and oncall's layer
// writes hold them, and a non-finite float, which json.Marshal refuses,
// in its place.
func docOf(t testing.TB, cfg *config.JobConfig) config.Doc {
	t.Helper()
	finite := *cfg
	if !isFinite(finite.TaskResources.CPUCores) {
		finite.TaskResources.CPUCores = 0
	}
	if !isFinite(finite.SLOSeconds) {
		finite.SLOSeconds = 0
	}
	d := jsonDoc(t, &finite)
	set := func(path string, v any, present bool) {
		if !present {
			return
		}
		at := map[string]any(d)
		if head, key, nested := strings.Cut(path, "."); nested {
			at, path = at[head].(map[string]any), key
		}
		at[path] = v
	}
	r := cfg.TaskResources
	set("taskResources.cpuCores", r.CPUCores, !isFinite(r.CPUCores))
	set("sloSeconds", cfg.SLOSeconds, !isFinite(cfg.SLOSeconds))
	for path, n := range map[string]int64{
		"taskCount": int64(cfg.TaskCount), "threadsPerTask": int64(cfg.ThreadsPerTask),
		"input.partitions": int64(cfg.Input.Partitions), "priority": int64(cfg.Priority),
		"maxTaskCount": int64(cfg.MaxTaskCount), "taskResources.memoryBytes": r.MemoryBytes,
		"taskResources.diskBytes": r.DiskBytes, "taskResources.networkBps": r.NetworkBps,
	} {
		set(path, n, n != 0)
	}
	return d
}

// jsonDoc is encoding/json's round trip of cfg, which must be finite:
// json.Marshal, then json.Unmarshal into a config.Doc — nested objects as
// map[string]any and every number a float64.
func jsonDoc(t testing.TB, cfg *config.JobConfig) config.Doc {
	t.Helper()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal %+v: %v", *cfg, err)
	}
	var d config.Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	return d
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkAppendJobConfig fails unless AppendJobConfig(cfg) is, byte for
// byte, the generic encoding of the document it stands for (docOf), and
// DecodeJobConfigBlob returns cfg from it — with invalid UTF-8 replaced
// as JobConfigFromDoc replaces it, and a float -0 read back as 0.
func checkAppendJobConfig(t testing.TB, cfg *config.JobConfig) {
	t.Helper()
	var e Encoder
	e.AppendJobConfig(cfg)
	if want := encodeDoc(t, docOf(t, cfg)); !bytes.Equal(e.Buf, want) {
		t.Fatalf("%+v:\n  typed %x\n  doc   %x", *cfg, e.Buf, want)
	}
	got, err := DecodeJobConfigBlob(e.Buf)
	if err != nil || got == nil {
		t.Fatalf("%+v: decode = %+v, %v", *cfg, got, err)
	}
	want := *cfg
	for _, s := range []*string{&want.Name, &want.Package.Name, &want.Package.Version,
		(*string)(&want.Operator), &want.Input.Category, &want.Output.Category,
		&want.CheckpointDir, (*string)(&want.Enforcement)} {
		*s = string([]rune(*s))
	}
	for _, x := range []*float64{&want.TaskResources.CPUCores, &want.SLOSeconds} {
		if *x == 0 {
			*x = 0 // a -0 is left out, like every zero
		}
	}
	// %#v, not reflect.DeepEqual: NaN is the same value on both sides.
	if fmt.Sprintf("%#v", *got) != fmt.Sprintf("%#v", want) {
		t.Fatalf("round trip:\n  got  %#v\n  want %#v", *got, want)
	}
}

func TestAppendJobConfigSeeds(t *testing.T) {
	for _, cfg := range []*config.JobConfig{
		sampleConfig(),
		{},
		{Name: "bad\xff\xfeutf8", Package: config.Package{Version: "\xed\xa0\x80"}},
		{TaskCount: -1, Priority: math.MinInt, MaxTaskCount: math.MaxInt,
			TaskResources: config.Resources{MemoryBytes: 1<<53 + 1, DiskBytes: math.MaxInt64, NetworkBps: math.MinInt64}},
		{SLOSeconds: math.Inf(-1), TaskResources: config.Resources{CPUCores: math.NaN()}},
		{SLOSeconds: math.Copysign(0, -1), Stopped: true},
	} {
		checkAppendJobConfig(t, cfg)
	}
	var e Encoder
	e.AppendJobConfig(nil)
	if cfg, err := DecodeJobConfigBlob(e.Buf); err != nil || cfg == nil || *cfg != (config.JobConfig{}) {
		t.Fatalf("nil config decodes to %+v, %v; want the zero config", cfg, err)
	}
}

// FuzzAppendJobConfig holds the spec feed's typed encoding to the
// generic encoding of the document it stands for, and to an exact round
// trip through DecodeJobConfigBlob, for any config: integers beyond 2^53
// and at the int64 limits, non-finite and negative-zero floats, empty
// nested structs, and invalid UTF-8.
func FuzzAppendJobConfig(f *testing.F) {
	c := sampleConfig()
	f.Add(c.Name, c.Package.Name, c.Package.Version, string(c.Operator), c.Input.Category,
		c.Output.Category, c.CheckpointDir, string(c.Enforcement), int64(c.TaskCount),
		int64(c.ThreadsPerTask), int64(c.Input.Partitions), int64(c.Priority), int64(c.MaxTaskCount),
		c.TaskResources.MemoryBytes, c.TaskResources.DiskBytes, c.TaskResources.NetworkBps,
		c.TaskResources.CPUCores, c.SLOSeconds, c.Stopped)
	f.Add("", "", "", "", "", "", "", "", int64(0), int64(0), int64(0), int64(0), int64(0),
		int64(0), int64(0), int64(0), 0.0, 0.0, false)
	f.Add("\xff", "é", "\xed\xa0\x80", "x", "", "c", "", "jvm", int64(-1), int64(math.MaxInt64),
		int64(math.MinInt64), int64(1<<53+1), int64(1), int64(1<<53+1), int64(-(1<<53)-1),
		int64(7), math.Inf(1), math.NaN(), true)
	f.Fuzz(func(t *testing.T, name, pkg, version, op, in, out, ckpt, enf string,
		tasks, threads, parts, prio, maxTasks, mem, disk, net int64, cpu, slo float64, stopped bool) {
		checkAppendJobConfig(t, &config.JobConfig{
			Name:           name,
			Package:        config.Package{Name: pkg, Version: version},
			TaskCount:      int(tasks),
			ThreadsPerTask: int(threads),
			TaskResources:  config.Resources{CPUCores: cpu, MemoryBytes: mem, DiskBytes: disk, NetworkBps: net},
			Operator:       config.Operator(op),
			Input:          config.Input{Category: in, Partitions: int(parts)},
			Output:         config.Output{Category: out},
			CheckpointDir:  ckpt,
			Enforcement:    config.MemoryEnforcement(enf),
			Priority:       int(prio),
			MaxTaskCount:   int(maxTasks),
			SLOSeconds:     slo,
			Stopped:        stopped,
		})
	})
}

// TestJobConfigBlobStringsAlias: the typed decode keeps a view of the
// blob for a valid UTF-8 string and a U+FFFD copy for an invalid one.
func TestJobConfigBlobStringsAlias(t *testing.T) {
	blob := encodeDoc(t, config.Doc{"name": "jobs/a", "operator": "bad\xffop"})
	cfg, err := DecodeJobConfigBlob(blob)
	if err != nil || cfg == nil {
		t.Fatalf("decode = %+v, %v", cfg, err)
	}
	inBlob := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		lo := uintptr(unsafe.Pointer(&blob[0]))
		return p >= lo && p < lo+uintptr(len(blob))
	}
	if cfg.Name != "jobs/a" || !inBlob(cfg.Name) {
		t.Fatalf("name %q is not a view of the blob", cfg.Name)
	}
	if cfg.Operator != "bad�op" || inBlob(string(cfg.Operator)) {
		t.Fatalf("operator %q: want a U+FFFD copy", cfg.Operator)
	}
}

// TestNonMinimalVarintRejected: a varint in a longer form than the
// encoders write is malformed, so each value has exactly one encoding.
func TestNonMinimalVarintRejected(t *testing.T) {
	for _, b := range [][]byte{
		{vDoc, 0x80, 0x00},                  // a count of 0 in two bytes
		{vDoc, 1, 0x81, 0x00, 'a', vNil},    // a key length of 1 in two bytes
		{vDoc, 1, 1, 'a', vInt, 0x82, 0x00}, // the integer 1 in two bytes
	} {
		if _, err := DecodeDocBlob(b); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%x: err = %v, want ErrMalformed", b, err)
		}
	}
}
