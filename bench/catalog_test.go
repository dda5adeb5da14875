package bench

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCatalogue keeps BENCHMARK.json and the catalogue the
// harness reports from in step, and inside the benchmark contract's
// limits.
func TestManifestMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(mf.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the catalogue %d", len(mf.Workloads), len(Workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range Workloads {
		if mf.Workloads[i].Name != w.Name || mf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalogue %q (or their reasons differ)", i, mf.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
		unique(w.Name)
	}
	compare := func(kind string, got []manifestMetric, want []MetricInfo, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the catalogue %d", len(got), kind, len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != string(w.Better) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(w.Unit) {
				t.Errorf("%s: unit %q is malformed", w.Name, w.Unit)
			}
			unique(w.Name)
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s: bound must be set, equal in both places and in (0, 0.25]", w.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", w.Name)
			}
		}
	}
	compare("end-to-end", mf.EndToEnd, EndToEnd, true)
	compare("per-layer", mf.PerLayer, PerLayer, false)
	if len(PerLayer) > 128 || len(EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(PerLayer), len(EndToEnd))
	}
	if EndToEnd[0].Name != "setup_s" || EndToEnd[0].Unit != "s" || EndToEnd[0].Better != Lower {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
	for _, e := range EndToEnd[1:] {
		if e.Bound > EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 || len(mf.Paths) == 0 || len(mf.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", mf.RunSeconds, mf.Paths, mf.Command)
	}
}
