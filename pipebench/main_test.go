package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeScale shrinks every workload to a few thousand pairs.
const smokeScale = "0.05"

// layersByWorkload are the spans each workload's traced run must emit.
var layersByWorkload = map[string][]string{
	"solve-twitter":  {spanTracegen, spanStage1, spanStage2, spanLowerBound, spanVerify, spanFingerprint},
	"churn-steady":   {spanTracegen, spanIncremental, spanPlan, spanApply, spanEncode, spanFsync, spanCompact, spanLowerBound, spanVerify, spanFingerprint},
	"diurnal-replay": {spanTracegen, spanStep, spanStage1, spanStage2, spanApply, spanEncode, spanFsync, spanCompact, spanLowerBound, spanVerify, spanFingerprint},
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// smokeRun runs one tiny workload and returns its record and result.
func smokeRun(t *testing.T, workload, trace, dir string) (*record, result, []byte) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
		"--scale", smokeScale, "--workdir", dir}
	if err := runMain(args, &out, &errOut); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a record and a result line, got %q", workload, out.String())
	}
	var rec map[string]*record
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return rec["pipebench_record"], res, out.Bytes()
}

func checkMetrics(t *testing.T, workload string, res result, want []benchMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestSmoke(t *testing.T) {
	def := readBenchmark(t)
	baseDir, headDir := t.TempDir(), t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			rec, res, out := smokeRun(t, w.name, "0", dir)
			if !res.Correct || res.Failed != 0 || rec.FailFrac != 0 || res.Attempted < 1 {
				t.Fatalf("run not clean: correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, rec.Errors)
			}
			checkMetrics(t, w.name, res, def.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if err := os.WriteFile(filepath.Join(baseDir, w.name), out, 0o644); err != nil {
				t.Fatal(err)
			}

			again, _, out := smokeRun(t, w.name, "0", dir)
			if again.Output != rec.Output {
				t.Errorf("same seed, different output: %+v then %+v", rec.Output, again.Output)
			}
			if err := os.WriteFile(filepath.Join(headDir, w.name), out, 0o644); err != nil {
				t.Fatal(err)
			}

			trec, tres, _ := smokeRun(t, w.name, "1", dir)
			if !tres.Correct || tres.Failed != 0 {
				t.Fatalf("traced run not clean: %v", trec.Errors)
			}
			if trec.Output != rec.Output {
				t.Errorf("tracing changed the output: %+v, untraced %+v", trec.Output, rec.Output)
			}
			checkMetrics(t, w.name, tres, def.PerLayer)
			checkSpans(t, trec.SpansFile, layersByWorkload[w.name])
		})
	}

	var buf bytes.Buffer
	if err := compareMain([]string{"-bench", filepath.Join("..", "BENCHMARK.json"), baseDir, headDir}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !strings.Contains(buf.String(), "workload "+w.name+": base 1 runs, head 1 runs; output: identical") {
			t.Errorf("compare does not report %s as identical:\n%s", w.name, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "op_ms.p50") {
		t.Errorf("compare prints no metric rows:\n%s", buf.String())
	}
}

// checkSpans loads a span file and checks that every span nests inside
// its parent under the parent's trace ID, that self times are not
// negative, and that the wanted layers appear.
func checkSpans(t *testing.T, path string, want []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []Span }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, s := range doc.Spans {
		seen[s.Name] = true
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := doc.Spans[s.Parent]
		if s.Parent >= i || s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
			t.Errorf("span %d (%s %d–%d trace %d) not inside its parent %d (%s %d–%d trace %d)",
				i, s.Name, s.Start, s.End, s.Trace, s.Parent, p.Name, p.Start, p.End, p.Trace)
		}
	}
	keep := make([]bool, len(doc.Spans))
	for i := range keep {
		keep[i] = true
	}
	for name, self := range summarize(doc.Spans, keep).self {
		if self < 0 {
			t.Errorf("layer %s has negative self time %v ms", name, self)
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("no %s span recorded", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25]", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	noisy := []float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"same", base, base, "same"},
		{"worse", base, slower, "worse"},
		{"better", base, faster, "better"},
		{"unresolved", noisy, base, "unresolved"},
	} {
		if got := compareMetric(tc.base, tc.head, true, &bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
