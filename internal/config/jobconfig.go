package config

import (
	"encoding/json"
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

// Validate checks that a merged configuration is runnable.
func (c *JobConfig) Validate() error {
	var errs []error
	if c.Name == "" {
		errs = append(errs, errors.New("job name is required"))
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
	if c.Input.Partitions <= 0 {
		errs = append(errs, fmt.Errorf("input partitions must be positive, got %d", c.Input.Partitions))
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
	if cpu := c.TaskResources.CPUCores; math.IsNaN(cpu) || math.IsInf(cpu, 0) {
		errs = append(errs, fmt.Errorf("task cpuCores must be finite, got %v", cpu))
	}
	return errors.Join(errs...)
}

// ToDoc serializes c into a layering Doc via its JSON form.
func (c *JobConfig) ToDoc() (Doc, error) {
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

// field is one JSON-named struct field of T and the store that decodes a
// document value into it.
type field[T any] struct {
	name string
	set  func(*T, any) error
}

// The field tables mirror the json tags of the structs above;
// TestFieldTablesMatchStructTags keeps them in step.
var (
	jobConfigFields = []field[JobConfig]{
		{"name", func(c *JobConfig, v any) error { return setString(&c.Name, v) }},
		{"package", func(c *JobConfig, v any) error { return setObject(&c.Package, v, packageFields) }},
		{"taskCount", func(c *JobConfig, v any) error { return setInt(&c.TaskCount, v) }},
		{"threadsPerTask", func(c *JobConfig, v any) error { return setInt(&c.ThreadsPerTask, v) }},
		{"taskResources", func(c *JobConfig, v any) error { return setObject(&c.TaskResources, v, resourcesFields) }},
		{"operator", func(c *JobConfig, v any) error { return setString(&c.Operator, v) }},
		{"input", func(c *JobConfig, v any) error { return setObject(&c.Input, v, inputFields) }},
		{"output", func(c *JobConfig, v any) error { return setObject(&c.Output, v, outputFields) }},
		{"checkpointDir", func(c *JobConfig, v any) error { return setString(&c.CheckpointDir, v) }},
		{"enforcement", func(c *JobConfig, v any) error { return setString(&c.Enforcement, v) }},
		{"priority", func(c *JobConfig, v any) error { return setInt(&c.Priority, v) }},
		{"maxTaskCount", func(c *JobConfig, v any) error { return setInt(&c.MaxTaskCount, v) }},
		{"sloSeconds", func(c *JobConfig, v any) error { return setFloat(&c.SLOSeconds, v) }},
		{"stopped", func(c *JobConfig, v any) error { return setBool(&c.Stopped, v) }},
	}
	packageFields = []field[Package]{
		{"name", func(p *Package, v any) error { return setString(&p.Name, v) }},
		{"version", func(p *Package, v any) error { return setString(&p.Version, v) }},
	}
	resourcesFields = []field[Resources]{
		{"cpuCores", func(r *Resources, v any) error { return setFloat(&r.CPUCores, v) }},
		{"memoryBytes", func(r *Resources, v any) error { return setInt(&r.MemoryBytes, v) }},
		{"diskBytes", func(r *Resources, v any) error { return setInt(&r.DiskBytes, v) }},
		{"networkBps", func(r *Resources, v any) error { return setInt(&r.NetworkBps, v) }},
	}
	inputFields = []field[Input]{
		{"category", func(in *Input, v any) error { return setString(&in.Category, v) }},
		{"partitions", func(in *Input, v any) error { return setInt(&in.Partitions, v) }},
	}
	outputFields = []field[Output]{
		{"category", func(o *Output, v any) error { return setString(&o.Category, v) }},
	}
)

// schemaKeys holds every JSON field name of the JobConfig schema — the
// names of the field tables above, nested objects included — bucketed by
// length. It is built once and never written again.
var schemaKeys = func() [][]string {
	var names []string
	names = appendFieldNames(names, jobConfigFields)
	names = appendFieldNames(names, packageFields)
	names = appendFieldNames(names, resourcesFields)
	names = appendFieldNames(names, inputFields)
	names = appendFieldNames(names, outputFields)
	var byLen [][]string
	for _, n := range names {
		for len(byLen) <= len(n) {
			byLen = append(byLen, nil)
		}
		if !slices.Contains(byLen[len(n)], n) {
			byLen[len(n)] = append(byLen[len(n)], n)
		}
	}
	return byLen
}()

func appendFieldNames[T any](names []string, fields []field[T]) []string {
	for _, f := range fields {
		names = append(names, f.name)
	}
	return names
}

// SchemaKey returns the schema's own string for a document key that is,
// byte for byte, one of the JobConfig schema's JSON field names, and false
// for any other key (a case variant included). A decoder that keeps the
// keys it reads can use it to share one string per field name instead of
// allocating one per occurrence: the lookup does not allocate, at most
// four names share a length, and a first-byte check skips most of them.
func SchemaKey(b []byte) (string, bool) {
	if len(b) == 0 || len(b) >= len(schemaKeys) {
		return "", false
	}
	for _, k := range schemaKeys[len(b)] {
		if k[0] == b[0] && string(b) == k {
			return k, true
		}
	}
	return "", false
}

// fieldIndex resolves a document key to its field the way encoding/json
// does: the exact name first, then the first field equal under Unicode
// case folding; -1 for a key that names no field.
func fieldIndex[T any](fields []field[T], key string) int {
	for i := range fields {
		if fields[i].name == key {
			return i
		}
	}
	for i := range fields {
		if strings.EqualFold(fields[i].name, key) {
			return i
		}
	}
	return -1
}

// decodeFields stores every entry of d that names a field into dst. Stores
// into distinct fields commute, so the map's own iteration order serves —
// until two keys turn out to name one field; then the decode starts over
// from dst's original value in sorted key order, the order in which
// encoding/json would have met them.
func decodeFields[T any](dst *T, d map[string]any, fields []field[T]) error {
	orig := *dst
	var seen uint32
	for k, v := range d {
		i := fieldIndex(fields, k)
		if i < 0 {
			continue
		}
		if seen&(1<<i) != 0 {
			*dst = orig
			for _, k := range sortedKeysOf(d) {
				if i := fieldIndex(fields, k); i >= 0 {
					if err := fields[i].set(dst, d[k]); err != nil {
						return fmt.Errorf("%s: %w", k, err)
					}
				}
			}
			return nil
		}
		seen |= 1 << i
		if err := fields[i].set(dst, v); err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
	}
	return nil
}

// setObject merges a nested object into the struct *dst already holds.
func setObject[T any](dst *T, v any, fields []field[T]) error {
	if v == nil {
		return nil
	}
	m, ok := asDoc(v)
	if !ok {
		return kindError(v, "object")
	}
	return decodeFields(dst, m, fields)
}

func setString[S ~string](dst *S, v any) error {
	switch x := v.(type) {
	case nil:
	case string:
		if !utf8.ValidString(x) {
			// encoding/json writes each invalid byte as U+FFFD, which is
			// what the conversion through runes produces.
			x = string([]rune(x))
		}
		*dst = S(x)
	default:
		return kindError(v, "string")
	}
	return nil
}

func setBool(dst *bool, v any) error {
	switch x := v.(type) {
	case nil:
	case bool:
		*dst = x
	default:
		return kindError(v, "bool")
	}
	return nil
}

func setFloat(dst *float64, v any) error {
	switch x := v.(type) {
	case nil:
	case float64:
		*dst = x
	case int:
		*dst = float64(x)
	case int64:
		*dst = float64(x)
	default:
		return kindError(v, "number")
	}
	return nil
}

func setInt[I int | int64](dst *I, v any) error {
	var n int64
	switch x := v.(type) {
	case nil:
		return nil
	case int:
		n = int64(x)
	case int64:
		n = x
	case float64:
		var ok bool
		if n, ok = integerOf(x); !ok {
			return fmt.Errorf("number %v is not an integer in range", x)
		}
	default:
		return kindError(v, "number")
	}
	if int64(I(n)) != n {
		return fmt.Errorf("number %d overflows %T", n, *dst)
	}
	*dst = I(n)
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

// kindError reports a document value of the wrong JSON kind for its field.
func kindError(v any, want string) error {
	return fmt.Errorf("cannot decode %T into %s", v, want)
}
