package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test runs every workload, untraced and traced, at a small
// scale, and checks the output against BENCHMARK.json.

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// smokeConfig builds bloomrfd and returns a configuration that shrinks
// every key count 256-fold and measures for a fraction of a second.
func smokeConfig(t *testing.T) config {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bloomrfd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/bloomrfd").CombinedOutput(); err != nil {
		t.Fatalf("building bloomrfd: %v\n%s", err, out)
	}
	return config{
		seed: 1, seconds: 0.2, bloomrfd: bin, work: t.TempDir(),
		conns: 2, setups: 2, scale: 1.0 / 256,
	}
}

func TestBenchmarkFileListsWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloads(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, bench runs %s", got, want)
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	cfg := smokeConfig(t)
	for _, name := range workloads() {
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			var out bytes.Buffer
			res, err := run(name, cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if traced && !strings.Contains(out.String(), "layer "+m.Name+" ") {
					t.Errorf("%s: trace summary lacks %s", name, m.Name)
				}
			}
			if traced {
				spans := filepath.Join(cfg.work, "trace", name+".spans.jsonl")
				if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
					t.Errorf("%s: no spans in %s: %v", name, spans, err)
				}
			}
		}
	}
}

func TestInjectedFalseNegativeFailsRun(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.injectFalseNegative = true
	var out bytes.Buffer
	res, err := run("point-binary-large", cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || !strings.Contains(out.String(), "WRONG") {
		t.Errorf("a flipped verdict left the run correct\n%s", out.String())
	}
}
