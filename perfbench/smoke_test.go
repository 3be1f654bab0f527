package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at a tiny size in both modes and checks
// each run is correct and reports every metric its mode promises, with
// the unit BENCHMARK.json gives it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds goldilocksd and starts daemons")
	}
	spec := readSpec(t)
	daemon := filepath.Join(t.TempDir(), "goldilocksd")
	build := exec.Command("go", "build", "-o", daemon, "goldilocks/cmd/goldilocksd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building goldilocksd: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 7, seconds: 200 * time.Millisecond, trace: traced, tiny: true, daemon: daemon, dir: t.TempDir()}
			var out outcome
			if err := workloads[w.Name](cfg, &out); err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			var buf bytes.Buffer
			if err := emit(&buf, w.Name, cfg, &out); err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   *bool             `json:"correct"`
				Attempted *int64            `json:"attempted"`
				Failed    *int64            `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s: last line %q: %v", w.Name, lines[len(lines)-1], err)
			}
			if res.Correct == nil || !*res.Correct || res.Failed == nil || *res.Failed != 0 || res.Attempted == nil || *res.Attempted < 1 {
				t.Errorf("%s (trace %v): result %s; failures %v", w.Name, traced, lines[len(lines)-1], out.failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s = %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestSpecMatchesProgram checks BENCHMARK.json names the workloads and
// metrics this program runs and reports.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	check := func(kind string, listed []specMetric, program []metricName) {
		if len(listed) != len(program) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(program))
			return
		}
		for i, m := range program {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestHistBuckets checks a value reads back from its bucket within the
// histogram's stated 6% error.
func TestHistBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 31, 32, 33, 100, 1000, 12345, 1 << 20, 1e9 + 7, 1 << 62} {
		mid := bucketMid(bucketOf(v))
		if d := mid - float64(v); d > 0.0625*float64(v) || -d > 0.0625*float64(v) {
			t.Errorf("value %d reads back as %g", v, mid)
		}
	}
	var h hist
	for v := uint64(1); v <= 1000; v++ {
		h.observe(v * 1000)
	}
	if p50 := h.quantile(0.5); p50 < 470e3 || p50 > 530e3 {
		t.Errorf("p50 of 1..1000 µs reads %g ns", p50)
	}
}

// TestParseScrape reads a histogram and labelled gauges the way the
// daemon's /metrics exposes them.
func TestParseScrape(t *testing.T) {
	const exposition = `# TYPE goldilocksd_stage_apply_us histogram
goldilocksd_stage_apply_us_bucket{le="0"} 0
goldilocksd_stage_apply_us_bucket{le="1"} 50
goldilocksd_stage_apply_us_bucket{le="3"} 100
goldilocksd_stage_apply_us_bucket{le="+Inf"} 100
goldilocksd_stage_apply_us_sum 150
goldilocksd_stage_apply_us_count 100
goldilocksd_checkpoints_written_total 7
goldilocksd_session_list_len{session="a"} 10
goldilocksd_session_list_len{session="b"} 30
`
	sc, err := parseScrape(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	h := sc.hists["goldilocksd_stage_apply_us"]
	if h == nil || h.count != 100 || h.sum != 150 {
		t.Fatalf("histogram %+v", h)
	}
	if p50, p75 := h.quantile(0.5), h.quantile(0.75); p50 != 1 || p75 != 2 {
		t.Errorf("p50 %g, p75 %g; want 1 and 2", p50, p75)
	}
	if v := sc.values["goldilocksd_checkpoints_written_total"]; v != 7 {
		t.Errorf("counter %g", v)
	}
	if ls := sc.labelled("goldilocksd_session_list_len"); len(ls) != 2 || ls[1] != 30 {
		t.Errorf("labelled %v", ls)
	}
}
