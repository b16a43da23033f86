package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// The figure experiments themselves are exercised (with shape assertions)
// by the benchmarks in the repository root. These tests cover the harness
// plumbing and the fast experiments directly.

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"tableI", "claim-push", "claim-e2e", "claim-sync", "claim-sched",
		"claim-33pct", "ablation-history",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs() = %d entries, registry has %d", len(ids), len(Registry))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
}

func TestResultFormat(t *testing.T) {
	r := &Result{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "verylongheader"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
		Summary: map[string]float64{
			"beta":  2,
			"alpha": 1,
		},
		Notes: []string{"a note"},
	}
	out := r.Format()
	for _, want := range []string{"== x: demo ==", "verylongheader", "333333", "alpha", "beta", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
	// Summary keys sorted.
	if strings.Index(out, "alpha") > strings.Index(out, "beta") {
		t.Error("summary keys not sorted")
	}
}

func TestTableIExperiment(t *testing.T) {
	res := TableIJobStore(Params{Short: true})
	if res.Summary["merged_task_count"] != 30 {
		t.Fatalf("merged_task_count = %v", res.Summary["merged_task_count"])
	}
	want := [][]string{
		{"expected", "base", "10", "v1"},
		{"expected", "provisioner", "-", "v2"},
		{"expected", "scaler", "15", "-"},
		{"expected", "oncall", "30", "-"},
		{"expected", "MERGED", "30", "v2"},
		{"running", "running", "30", "v2"},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %q, want %q", res.Rows, want)
	}
}

func TestClaimE2EExperiment(t *testing.T) {
	res := ClaimE2ESchedule(Params{Short: true})
	if res.Summary["schedule_seconds"] <= 0 || res.Summary["schedule_seconds"] > 300 {
		t.Fatalf("schedule_seconds = %v", res.Summary["schedule_seconds"])
	}
	if res.Summary["violations"] != 0 {
		t.Fatalf("violations = %v", res.Summary["violations"])
	}
}

func TestClaimPushExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small cluster")
	}
	res := ClaimGlobalPush(Params{Short: true})
	if res.Summary["push_minutes"] > 5 {
		t.Fatalf("push_minutes = %v", res.Summary["push_minutes"])
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a := ClaimE2ESchedule(Params{Short: true, Seed: 7})
	b := ClaimE2ESchedule(Params{Short: true, Seed: 7})
	for k, v := range a.Summary {
		if b.Summary[k] != v {
			t.Fatalf("summary %q differs across identical runs: %v vs %v", k, v, b.Summary[k])
		}
	}
}

func TestParamsSeedDefault(t *testing.T) {
	if (Params{}).seed() != 42 {
		t.Fatal("default seed changed")
	}
	if (Params{Seed: 7}).seed() != 7 {
		t.Fatal("explicit seed ignored")
	}
}
