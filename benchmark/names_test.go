package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is the contract file at the checkout root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func contractOf(defs []metricDef) []contractMetric {
	out := make([]contractMetric, len(defs))
	for i, d := range defs {
		out[i] = contractMetric{d.name, d.unit, d.better, d.bound}
	}
	return out
}

// Every workload and metric the command prints is declared in
// BENCHMARK.json, and the other way round, with the same unit, direction
// and bound.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command has {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	if got, want := b.EndToEnd, contractOf(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n command        %+v", got, want)
	}
	if got, want := b.PerLayer, contractOf(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n command        %+v", got, want)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the command's default window is %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) || !reflect.DeepEqual(b.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
}

// The contract's limits on names, units and reasons.
func TestNamesFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not fit the contract", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower" && d.bound > 0)
	}
	for _, d := range endToEnd {
		if d.bound == 0 {
			t.Errorf("end-to-end metric %s has no bound", d.name)
		}
	}
	if !hasSetup {
		t.Error("no gated setup_s metric in seconds")
	}
}
