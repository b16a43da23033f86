package config

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Operator names the transformation a job's binary performs. Stateless
// operators keep only input checkpoints; stateful operators additionally
// maintain application state that must be redistributed when parallelism
// changes (paper §V-B, §V-E).
type Operator string

// Built-in operators. Tailer models the Scuba Tailer binary from §VI.
const (
	OpFilter    Operator = "filter"
	OpProject   Operator = "project"
	OpTransform Operator = "transform"
	OpAggregate Operator = "aggregate"
	OpJoin      Operator = "join"
	OpTailer    Operator = "tailer"
)

// Stateful reports whether the operator maintains state beyond checkpoints.
func (o Operator) Stateful() bool { return o == OpAggregate || o == OpJoin }

// MemoryEnforcement selects how per-task memory limits are enforced, which
// determines how OOMs are detected (paper §V-A).
type MemoryEnforcement string

// Enforcement modes.
const (
	EnforceCgroup MemoryEnforcement = "cgroup" // cgroup limit; stats preserved after kill
	EnforceJVM    MemoryEnforcement = "jvm"    // JVM posts OOM metric before killing
	EnforceNone   MemoryEnforcement = "none"   // soft limit compared by the Auto Scaler
)

// Resources is a multi-dimensional resource vector. Turbine's auto scaler
// adjusts allocation in all of these dimensions (paper §I, §V-B).
type Resources struct {
	CPUCores    float64 `json:"cpuCores,omitempty"`
	MemoryBytes int64   `json:"memoryBytes,omitempty"`
	DiskBytes   int64   `json:"diskBytes,omitempty"`
	NetworkBps  int64   `json:"networkBps,omitempty"`
}

// Add returns r + o, dimension-wise.
func (r Resources) Add(o Resources) Resources {
	return Resources{
		CPUCores:    r.CPUCores + o.CPUCores,
		MemoryBytes: r.MemoryBytes + o.MemoryBytes,
		DiskBytes:   r.DiskBytes + o.DiskBytes,
		NetworkBps:  r.NetworkBps + o.NetworkBps,
	}
}

// Sub returns r - o, dimension-wise.
func (r Resources) Sub(o Resources) Resources {
	return Resources{
		CPUCores:    r.CPUCores - o.CPUCores,
		MemoryBytes: r.MemoryBytes - o.MemoryBytes,
		DiskBytes:   r.DiskBytes - o.DiskBytes,
		NetworkBps:  r.NetworkBps - o.NetworkBps,
	}
}

// Scale returns r with every dimension multiplied by f.
func (r Resources) Scale(f float64) Resources {
	return Resources{
		CPUCores:    r.CPUCores * f,
		MemoryBytes: int64(float64(r.MemoryBytes) * f),
		DiskBytes:   int64(float64(r.DiskBytes) * f),
		NetworkBps:  int64(float64(r.NetworkBps) * f),
	}
}

// Fits reports whether r fits within capacity c in every dimension.
func (r Resources) Fits(c Resources) bool {
	return r.CPUCores <= c.CPUCores &&
		r.MemoryBytes <= c.MemoryBytes &&
		r.DiskBytes <= c.DiskBytes &&
		r.NetworkBps <= c.NetworkBps
}

// AnyNegative reports whether any dimension is negative.
func (r Resources) AnyNegative() bool {
	return r.CPUCores < 0 || r.MemoryBytes < 0 || r.DiskBytes < 0 || r.NetworkBps < 0
}

// IsZero reports whether all dimensions are zero.
func (r Resources) IsZero() bool { return r == Resources{} }

// Package identifies the binary a job's tasks run.
type Package struct {
	Name    string `json:"name,omitempty"`
	Version string `json:"version,omitempty"`
}

// Input describes where a job reads from: a Scribe category split into
// partitions that tasks divide among themselves (paper §II).
type Input struct {
	Category   string `json:"category,omitempty"`
	Partitions int    `json:"partitions,omitempty"`
}

// Output describes where a job writes.
type Output struct {
	Category string `json:"category,omitempty"`
}

// JobConfig is the complete typed configuration for one job: everything
// required to start its tasks (paper §III). It corresponds to the merged
// view of all expected-configuration layers.
type JobConfig struct {
	Name           string            `json:"name,omitempty"`
	Package        Package           `json:"package,omitempty"`
	TaskCount      int               `json:"taskCount,omitempty"`
	ThreadsPerTask int               `json:"threadsPerTask,omitempty"`
	TaskResources  Resources         `json:"taskResources,omitempty"`
	Operator       Operator          `json:"operator,omitempty"`
	Input          Input             `json:"input,omitempty"`
	Output         Output            `json:"output,omitempty"`
	CheckpointDir  string            `json:"checkpointDir,omitempty"`
	Enforcement    MemoryEnforcement `json:"enforcement,omitempty"`

	// Priority orders jobs for capacity decisions; higher is more
	// important (paper §V-F).
	Priority int `json:"priority,omitempty"`
	// MaxTaskCount caps horizontal scaling, preventing runaway jobs from
	// grabbing the cluster (32 for unprivileged Scuba tailers, §VI-B1).
	MaxTaskCount int `json:"maxTaskCount,omitempty"`
	// SLOSeconds is the end-to-end lag budget (90 s for many FB apps, §I).
	SLOSeconds float64 `json:"sloSeconds,omitempty"`
	// Stopped marks a job administratively stopped (capacity manager may
	// stop low-priority jobs as a last resort, §V-F).
	Stopped bool `json:"stopped,omitempty"`
}

// stringFields returns the addresses of c's string fields.
func (c *JobConfig) stringFields() [8]*string {
	return [...]*string{&c.Name, &c.Package.Name, &c.Package.Version, (*string)(&c.Operator),
		&c.Input.Category, &c.Output.Category, &c.CheckpointDir, (*string)(&c.Enforcement)}
}

// OwnStrings moves every string field of c into one allocation of their
// total size, so that c keeps no view of the buffer it was decoded from
// (wire.DecodeJobConfigBlob's strings view its blob).
func (c *JobConfig) OwnStrings() {
	fields := c.stringFields()
	n := 0
	for _, f := range fields {
		n += len(*f)
	}
	var b strings.Builder
	b.Grow(n)
	for _, f := range fields {
		b.WriteString(*f)
	}
	all := b.String()
	for _, f := range fields {
		*f, all = all[:len(*f)], all[len(*f):]
	}
}

// ShareStrings makes each string field of c that equals the same field
// of prev the very string prev holds, so that the configs of a job's
// versions share the strings they have in common: a map keyed by one of
// them then finds the others' by pointer, without comparing bytes.
func (c *JobConfig) ShareStrings(prev *JobConfig) {
	if prev == nil {
		return
	}
	cs, ps := c.stringFields(), prev.stringFields()
	for i := range cs {
		if *cs[i] == *ps[i] {
			*cs[i] = *ps[i]
		}
	}
}

// maxPartitions bounds a job's input partitions. The Task Service lays
// out a job's partition numbers in one array and every task holds a few
// words per partition it owns, so a count no category has would fail
// there, or exhaust memory, after the config was accepted.
const maxPartitions = 1 << 16

// MaxJobNameLen bounds a job's name, in bytes. A feed subscriber walking
// the running table names the last job it applied in its next request,
// and the feed listener bounds a request's size by this, so a longer
// name ending a page would have every retry of that request refused.
const MaxJobNameLen = 1 << 10

// Validate checks that a merged configuration is runnable.
func (c *JobConfig) Validate() error {
	var errs []error
	if c.Name == "" {
		errs = append(errs, errors.New("job name is required"))
	}
	if len(c.Name) > MaxJobNameLen {
		errs = append(errs, fmt.Errorf("job name is %d bytes, over the %d-byte bound", len(c.Name), MaxJobNameLen))
	}
	if c.Package.Name == "" || c.Package.Version == "" {
		errs = append(errs, errors.New("package name and version are required"))
	}
	if c.TaskCount <= 0 {
		errs = append(errs, fmt.Errorf("taskCount must be positive, got %d", c.TaskCount))
	}
	if c.ThreadsPerTask <= 0 {
		errs = append(errs, fmt.Errorf("threadsPerTask must be positive, got %d", c.ThreadsPerTask))
	}
	if c.Input.Category == "" {
		errs = append(errs, errors.New("input category is required"))
	}
	if c.Input.Partitions <= 0 || c.Input.Partitions > maxPartitions {
		errs = append(errs, fmt.Errorf("input partitions must be in 1..%d, got %d", maxPartitions, c.Input.Partitions))
	}
	if c.TaskCount > c.Input.Partitions {
		errs = append(errs, fmt.Errorf("taskCount %d exceeds input partitions %d: a task must own at least one partition", c.TaskCount, c.Input.Partitions))
	}
	if c.MaxTaskCount > 0 && c.TaskCount > c.MaxTaskCount {
		errs = append(errs, fmt.Errorf("taskCount %d exceeds maxTaskCount %d", c.TaskCount, c.MaxTaskCount))
	}
	if c.TaskResources.AnyNegative() {
		errs = append(errs, errors.New("task resources must be non-negative"))
	}
	// NaN and +Inf pass every ordered comparison above. Neither is a
	// reservation anything can place, and a NaN is unequal to itself, so a
	// spec carrying one would look changed at every snapshot refresh.
	if cpu := c.TaskResources.CPUCores; !isFinite(cpu) {
		errs = append(errs, fmt.Errorf("task cpuCores must be finite, got %v", cpu))
	}
	// A non-finite SLO has no JSON form: the store could hold it but never
	// snapshot it.
	if !isFinite(c.SLOSeconds) {
		errs = append(errs, fmt.Errorf("sloSeconds must be finite, got %v", c.SLOSeconds))
	}
	return errors.Join(errs...)
}

// validUTF8 returns s with each byte of an invalid UTF-8 sequence replaced
// by U+FFFD, as encoding/json writes a string.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// JobConfigFromDoc decodes a merged Doc into the typed JobConfig. It reads
// the document directly and is defined as what the encoding/json round
// trip — Marshal the doc, Unmarshal the bytes into a JobConfig — returns,
// in value and in whether it fails, for every document built from nil,
// bool, string, int, int64, finite float64, arrays and nested objects
// (everything the wire codec delivers, plus Go int):
//
//   - a key names a field if it equals the field's JSON name, or else
//     matches it under Unicode case folding; other keys are ignored;
//   - null leaves the field as it is; a number decodes into an integer
//     field only if it is integral and in range; any other mismatch of
//     JSON kind (a string in a number field, an array or scalar where an
//     object is expected) is an error;
//   - when several keys of one object name the same field they apply in
//     sorted key order, scalars overwriting and objects merging field by
//     field.
//
// FuzzJobConfigFromDoc holds it to that round trip.
func JobConfigFromDoc(d Doc) (*JobConfig, error) {
	c := new(JobConfig)
	if err := decodeFields(c, d, jobConfigFields); err != nil {
		return nil, fmt.Errorf("decode job config: %w", err)
	}
	return c, nil
}

// Fields is the field table of JobConfig or of an object nested in it.
// It is the schema JobConfigFromDoc walks, and a streaming decoder walks
// the same tables: Lookup resolves a key, and a Field's setters store a
// value of each JSON kind by JobConfigFromDoc's rules, so a decoder that
// meets an object's keys in sorted order — each looked up, each value set
// or its error noted — builds what JobConfigFromDoc builds from the same
// document, and fails where it fails.
type Fields []Field

// Field is one JSON-named field. Exactly one of its stores is set — the
// one for the field's kind; an object field has its nested table instead.
// Every store takes the root JobConfig, so one table serves every level.
type Field struct {
	name     string
	setStr   func(*JobConfig, string)
	setInt   func(*JobConfig, int64) bool // false: the number overflows the field
	setFloat func(*JobConfig, float64)
	setBool  func(*JobConfig, bool)
	sub      Fields
}

func stringField[S ~string](name string, at func(*JobConfig) *S) Field {
	return Field{name: name, setStr: func(c *JobConfig, s string) { *at(c) = S(s) }}
}

func intField[I int | int64](name string, at func(*JobConfig) *I) Field {
	return Field{name: name, setInt: func(c *JobConfig, n int64) bool {
		if int64(I(n)) != n {
			return false
		}
		*at(c) = I(n)
		return true
	}}
}

func floatField(name string, at func(*JobConfig) *float64) Field {
	return Field{name: name, setFloat: func(c *JobConfig, x float64) { *at(c) = x }}
}

func boolField(name string, at func(*JobConfig) *bool) Field {
	return Field{name: name, setBool: func(c *JobConfig, b bool) { *at(c) = b }}
}

func objectField(name string, sub ...Field) Field {
	return Field{name: name, sub: sub}
}

// The field tables mirror the json tags of the structs above;
// TestFieldTablesMatchStructTags keeps them in step.
var jobConfigFields = Fields{
	stringField("name", func(c *JobConfig) *string { return &c.Name }),
	objectField("package",
		stringField("name", func(c *JobConfig) *string { return &c.Package.Name }),
		stringField("version", func(c *JobConfig) *string { return &c.Package.Version }),
	),
	intField("taskCount", func(c *JobConfig) *int { return &c.TaskCount }),
	intField("threadsPerTask", func(c *JobConfig) *int { return &c.ThreadsPerTask }),
	objectField("taskResources",
		floatField("cpuCores", func(c *JobConfig) *float64 { return &c.TaskResources.CPUCores }),
		intField("memoryBytes", func(c *JobConfig) *int64 { return &c.TaskResources.MemoryBytes }),
		intField("diskBytes", func(c *JobConfig) *int64 { return &c.TaskResources.DiskBytes }),
		intField("networkBps", func(c *JobConfig) *int64 { return &c.TaskResources.NetworkBps }),
	),
	stringField("operator", func(c *JobConfig) *Operator { return &c.Operator }),
	objectField("input",
		stringField("category", func(c *JobConfig) *string { return &c.Input.Category }),
		intField("partitions", func(c *JobConfig) *int { return &c.Input.Partitions }),
	),
	objectField("output",
		stringField("category", func(c *JobConfig) *string { return &c.Output.Category }),
	),
	stringField("checkpointDir", func(c *JobConfig) *string { return &c.CheckpointDir }),
	stringField("enforcement", func(c *JobConfig) *MemoryEnforcement { return &c.Enforcement }),
	intField("priority", func(c *JobConfig) *int { return &c.Priority }),
	intField("maxTaskCount", func(c *JobConfig) *int { return &c.MaxTaskCount }),
	floatField("sloSeconds", func(c *JobConfig) *float64 { return &c.SLOSeconds }),
	boolField("stopped", func(c *JobConfig) *bool { return &c.Stopped }),
}

// JobConfigFields returns the top-level table of the JobConfig schema. It
// is shared and must not be modified.
func JobConfigFields() Fields { return jobConfigFields }

// Lookup resolves a document key to its field the way encoding/json does:
// the exact name first, then the first field equal under Unicode case
// folding; nil for a key that names no field. key is not retained.
func (fs Fields) Lookup(key string) *Field {
	if i := fs.index(key); i >= 0 {
		return &fs[i]
	}
	return nil
}

func (fs Fields) index(key string) int {
	for i := range fs {
		if fs[i].name == key {
			return i
		}
	}
	for i := range fs {
		if strings.EqualFold(fs[i].name, key) {
			return i
		}
	}
	return -1
}

// SetBool stores a JSON boolean into the field.
func (f *Field) SetBool(c *JobConfig, b bool) error {
	if f.setBool == nil {
		return f.kindError("bool")
	}
	f.setBool(c, b)
	return nil
}

// SetInt stores a JSON number that the document holds as an integer.
func (f *Field) SetInt(c *JobConfig, n int64) error {
	switch {
	case f.setInt != nil:
		if !f.setInt(c, n) {
			return fmt.Errorf("%s: number %d overflows the field", f.name, n)
		}
	case f.setFloat != nil:
		f.setFloat(c, float64(n))
	default:
		return f.kindError("number")
	}
	return nil
}

// SetFloat stores a JSON number that the document holds as a float64: an
// integer field takes it only if it is integral and in range.
func (f *Field) SetFloat(c *JobConfig, x float64) error {
	switch {
	case f.setFloat != nil:
		f.setFloat(c, x)
	case f.setInt != nil:
		n, ok := integerOf(x)
		if !ok {
			return fmt.Errorf("%s: number %v is not an integer in range", f.name, x)
		}
		return f.SetInt(c, n)
	default:
		return f.kindError("number")
	}
	return nil
}

// SetString stores a JSON string. The field keeps s itself when it is
// valid UTF-8; otherwise a copy with each byte of an invalid sequence
// replaced by U+FFFD, as encoding/json writes it.
func (f *Field) SetString(c *JobConfig, s string) error {
	if f.setStr == nil {
		return f.kindError("string")
	}
	f.setStr(c, validUTF8(s))
	return nil
}

// Object returns the table of an object field, into which a JSON object
// value merges field by field; any other field is an error.
func (f *Field) Object() (Fields, error) {
	if f.sub == nil {
		return nil, f.kindError("object")
	}
	return f.sub, nil
}

// Array is the error a JSON array value is for the field: the schema has
// no array fields.
func (f *Field) Array() error { return f.kindError("array") }

func (f *Field) kindError(kind string) error {
	return fmt.Errorf("%s: cannot decode a JSON %s into the field", f.name, kind)
}

// set stores one document value into the field.
func (f *Field) set(c *JobConfig, v any) error {
	switch x := v.(type) {
	case nil:
		return nil
	case bool:
		return f.SetBool(c, x)
	case int:
		return f.SetInt(c, int64(x))
	case int64:
		return f.SetInt(c, x)
	case float64:
		return f.SetFloat(c, x)
	case string:
		return f.SetString(c, x)
	case []any:
		return f.Array()
	}
	m, ok := asDoc(v)
	if !ok {
		return fmt.Errorf("%s: cannot decode %T", f.name, v)
	}
	sub, err := f.Object()
	if err != nil {
		return err
	}
	return decodeFields(c, m, sub)
}

// decodeFields stores every entry of d that names a field of fields into
// c. Stores into distinct fields commute, so the map's own iteration order
// serves — until two keys turn out to name one field; then the decode
// starts over from c's original value in sorted key order, the order in
// which encoding/json would have met them.
func decodeFields(c *JobConfig, d map[string]any, fields Fields) error {
	orig := *c
	var seen uint32
	for k, v := range d {
		i := fields.index(k)
		if i < 0 {
			continue
		}
		if seen&(1<<i) != 0 {
			*c = orig
			for _, k := range sortedKeys(d) {
				if f := fields.Lookup(k); f != nil {
					if err := f.set(c, d[k]); err != nil {
						return err
					}
				}
			}
			return nil
		}
		seen |= 1 << i
		if err := fields[i].set(c, v); err != nil {
			return err
		}
	}
	return nil
}

// integerOf converts a float64 document number to the integer
// encoding/json would read from its text form. A fractional value has
// none. Below 2^53 the shortest decimal form of an integral float is the
// integer itself; above it the text can be a different integer than the
// float's exact value (the digits stop where they identify the float),
// so the conversion goes through that text — which is in exponent form,
// and no integer literal, from 1e21.
func integerOf(f float64) (int64, bool) {
	if f != math.Trunc(f) {
		return 0, false
	}
	if math.Abs(f) < 1<<53 {
		return int64(f), true
	}
	if math.Abs(f) >= 1e21 {
		return 0, false
	}
	n, err := strconv.ParseInt(strconv.FormatFloat(f, 'f', -1, 64), 10, 64)
	return n, err == nil
}

func sortedKeys(d map[string]any) []string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
