package wire

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/config"
)

// checkJobConfigBlob fails unless DecodeJobConfigBlob(blob) is what it is
// defined as — DecodeDocBlob then config.JobConfigFromDoc — in whether the
// blob is malformed, in whether the document is a JobConfig, and in the
// value. It reports which of the three outcomes blob had.
func checkJobConfigBlob(t testing.TB, blob []byte) (malformed, unfit bool) {
	t.Helper()
	got, err := DecodeJobConfigBlob(blob)
	doc, docErr := DecodeDocBlob(blob)
	if (err != nil) != (docErr != nil) {
		t.Fatalf("blob %x: typed decode err = %v, document decode err = %v", blob, err, docErr)
	}
	if err != nil {
		if !errors.Is(err, ErrMalformed) || got != nil {
			t.Fatalf("blob %x: typed decode = %+v, %v; want nil and ErrMalformed", blob, got, err)
		}
		return true, false
	}
	want, cfgErr := config.JobConfigFromDoc(doc)
	if (got == nil) != (cfgErr != nil) {
		t.Fatalf("blob %x (%v): typed decode = %+v, JobConfigFromDoc err = %v", blob, doc, got, cfgErr)
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
	full, err := (&config.JobConfig{
		Name:           "ads/metrics",
		Package:        config.Package{Name: "scuba_tailer", Version: "v7"},
		TaskCount:      8,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2.5, MemoryBytes: 2 << 30, DiskBytes: 1 << 40, NetworkBps: 1e9},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: "ads_metrics_in", Partitions: 64},
		Output:         config.Output{Category: "ads_metrics_out"},
		CheckpointDir:  "/ckpt/$JOB/$TASK",
		Enforcement:    config.EnforceCgroup,
		Priority:       3,
		MaxTaskCount:   32,
		SLOSeconds:     90,
		Stopped:        true,
	}).ToDoc()
	if err != nil {
		t.Fatal(err)
	}
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
// is malformed, in whether the document is a JobConfig, and in value.
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
