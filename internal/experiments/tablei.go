package experiments

import (
	"slices"
	"strings"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/wire"
)

// TableIJobStore reproduces Table I: the job store schema — an Expected
// Job table holding four configuration layers (Base < Provisioner <
// Scaler < Oncall) and a Running Job table holding the configuration the
// cluster actually runs. It replays the paper's §III-A scenario: a job at
// 10 tasks, the Auto Scaler wants 15, Oncall1 wants 20, Oncall2 wants 30;
// the layers isolate the writers and precedence resolves the conflict.
func TableIJobStore(p Params) *Result {
	store := jobstore.New()
	svc := jobservice.New(store)

	job := tailerConfig("demo/job", 10, 64, 0, 0)
	if err := svc.Provision(job); err != nil {
		panic(err)
	}
	// Provisioner releases a new binary.
	if err := svc.SetPackageVersion("demo/job", "v2"); err != nil {
		panic(err)
	}
	// The Auto Scaler bumps to 15; two oncalls intervene at 20 then 30.
	if err := svc.SetTaskCount("demo/job", config.LayerScaler, 15); err != nil {
		panic(err)
	}
	if err := svc.SetTaskCount("demo/job", config.LayerOncall, 20); err != nil {
		panic(err)
	}
	if err := svc.SetTaskCount("demo/job", config.LayerOncall, 30); err != nil {
		panic(err)
	}

	e, err := store.GetExpected("demo/job")
	if err != nil {
		panic(err)
	}
	res := &Result{
		ID:     "tableI",
		Title:  "Job store schema: expected layers merged by precedence into the running configuration",
		Header: []string{"table", "layer", "taskCount", "package.version"},
	}
	empty, _ := wire.EditBlob(nil) // no edits: the empty document, no error
	layerRow := func(label string, b wire.Blob) []string {
		return []string{"expected", label, pathValue(empty, b, "taskCount"), pathValue(empty, b, "package.version")}
	}
	for _, l := range config.Layers() {
		res.Rows = append(res.Rows, layerRow(l.String(), e.Layers[l]))
	}

	merged, version, err := store.MergedExpected("demo/job")
	if err != nil {
		panic(err)
	}
	res.Rows = append(res.Rows, layerRow("MERGED", merged.Doc))

	// The State Syncer would commit this as the running configuration.
	if err := store.CommitRunning("demo/job", merged, version); err != nil {
		panic(err)
	}
	running, _, _ := store.RunningDoc("demo/job")
	row := layerRow("running", running.Doc)
	row[0] = "running"
	res.Rows = append(res.Rows, row)

	cfg := running.Config
	if cfg == nil {
		panic("demo/job runs no JobConfig")
	}
	res.Summary = map[string]float64{
		"merged_task_count": float64(cfg.TaskCount), // 30: oncall wins
		"expected_version":  float64(version),
	}
	res.Notes = append(res.Notes,
		"oncall layer (30 tasks) outranks scaler (15) which outranks base (10); provisioner's v2 release survives underneath",
		"a later scaler write cannot clobber the oncall override — the §III-A consistency requirement")
	return res
}

// pathValue formats the value at the dotted path in document b as %v
// does, or "-" where b holds none. The diff from the empty document is
// one change per key, holding the key's value; an object on the path is
// read the same way.
func pathValue(empty, b wire.Blob, path string) string {
	key, rest, nested := strings.Cut(path, ".")
	// An unset layer, or a value that is no object, has no diff: no keys.
	changes, _ := wire.DiffBlobs(empty, b)
	i := slices.IndexFunc(changes, func(c wire.Change) bool { return c.Path == key })
	if i < 0 {
		return "-"
	}
	if nested {
		return pathValue(empty, wire.Blob(changes[i].To), rest)
	}
	return changes[i].To.String()
}
