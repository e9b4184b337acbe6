package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/campaign"
	"repro/internal/shard"
)

func TestMain(m *testing.M) {
	shard.MaybeWorker() // serve-sharded's pool re-execs the test binary
	os.Exit(m.Run())
}

type metricSpec struct{ Name, Unit string }

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

// TestSmoke runs every workload at its smallest size, untraced and traced,
// and checks that each prints exactly the metrics BENCHMARK.json names,
// with their units, and passes every correctness gate.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(benchWorkloads))
	}
	for _, wl := range spec.Workloads {
		w, ok := benchWorkloads[wl.Name]
		if !ok {
			t.Fatalf("unknown workload %q", wl.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := execute(wl.Name, w, 7, 0.05, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestWrongExpectedOutputFails corrupts one kernel's expected output and
// requires the run to report itself incorrect.
func TestWrongExpectedOutputFails(t *testing.T) {
	orig := interpRef
	defer func() { interpRef = orig }()
	interpRef = func(a campaign.App) ([]uint64, error) {
		out, err := orig(a)
		if a.Name == "CG" && len(out) > 0 {
			out[0] ^= 1
		}
		return out, err
	}
	res, err := execute("paper-suite", benchWorkloads["paper-suite"], 7, 0.05, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a run with a wrong expected output reported correct")
	}
}
