package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNames(t *testing.T) {
	s := loadSpec(t)
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, m := range append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs a seconds-long version of every workload, untraced and
// traced, and checks the result line: every check passed, and the
// metrics are exactly the ones BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			want := s.EndToEnd
			if trace == "1" {
				want = s.PerLayer
			}
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0", "--trace", trace,
					"--smoke", "--root", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-50", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"mtsim/internal/phy.(*Channel).Transmit":             "mtsim/internal/phy",
		"mtsim/internal/routing/aodv.(*Router).Receive":      "mtsim/internal/routing/aodv",
		"mtsim/internal/sim.(*heap).popMin":                  "mtsim/internal/sim",
		"slices.SortFunc[go.shape.[]mtsim/internal/phy.hit]": "slices",
		"runtime.mallocgc":                                   "runtime",
		"main.(*bench).runPlain":                             "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
	for pkg, want := range map[string]string{
		"mtsim/internal/core":        "routing",
		"mtsim/internal/node":        "routing",
		"mtsim/internal/routing/dsr": "routing",
		"mtsim/internal/geo":         "geo",
		"mtsim/internal/runcache":    "other",
		"slices":                     "",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{9, 1, 2}, 2},
		{[]float64{100, 1, 2, 3}, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 800}, 4.5},
	} {
		if got := interquartileMean(c.xs); got != c.want {
			t.Errorf("interquartileMean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestDirectJobsSeedBlocks checks that the direct runs give every
// configuration its own seeds, and keep the grid's seeds for the first.
func TestDirectJobsSeedBlocks(t *testing.T) {
	for _, w := range workloads {
		sw := w.sweep(100)
		grid, direct := sw.Jobs(), directJobs(sw)
		if len(direct) != len(grid) {
			t.Fatalf("%s: %d direct jobs for a grid of %d", w.name, len(direct), len(grid))
		}
		seen := map[int64]bool{}
		for i, j := range direct {
			if j.Key != grid[i].Key {
				t.Errorf("%s job %d: key %v, want %v", w.name, i, j.Key, grid[i].Key)
			}
			if seen[j.Config.Seed] {
				t.Errorf("%s job %d: seed %d used twice", w.name, i, j.Config.Seed)
			}
			seen[j.Config.Seed] = true
			if i < w.reps && j.Config.Seed != grid[i].Config.Seed {
				t.Errorf("%s job %d: seed %d, want the grid's %d", w.name, i, j.Config.Seed, grid[i].Config.Seed)
			}
		}
	}
}
