package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the compare mode reads.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// compareMain compares two sets of saved run outputs:
//
//	pipebench compare [-bench BENCHMARK.json] BASE HEAD
//
// BASE and HEAD are files or directories of files holding the standard
// output of runs. For each workload and metric it prints both sides'
// median and quartiles, the share of (base, head) run pairs each side
// won, and a verdict; for each workload it reports whether the final
// outputs of equal seeds are identical.
func compareMain(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fset.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if fset.NArg() != 2 {
		return errors.New("usage: pipebench compare [-bench BENCHMARK.json] BASE HEAD")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	base, err := loadRecords(fset.Arg(0))
	if err != nil {
		return err
	}
	head, err := loadRecords(fset.Arg(1))
	if err != nil {
		return err
	}
	for _, w := range workloads {
		b, h := base[w.name], head[w.name]
		if len(b) == 0 && len(h) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "workload %s: base %d runs, head %d runs; output: %s\n", w.name, len(b), len(h), outputVerdict(b, h))
		fmt.Fprintf(stdout, "  %-34s %-6s %-30s %-30s %7s %6s %6s  %s\n",
			"metric", "unit", "base median [q1 q3]", "head median [q1 q3]", "change", "head", "base", "verdict")
		for _, set := range []struct {
			trace   bool
			metrics []benchMetric
		}{{false, def.EndToEnd}, {true, def.PerLayer}} {
			for _, m := range set.metrics {
				bv, hv := values(b, set.trace, m.Name), values(h, set.trace, m.Name)
				if len(bv) == 0 || len(hv) == 0 {
					continue
				}
				c := compareMetric(bv, hv, m.Better != "higher", m.Bound)
				fmt.Fprintf(stdout, "  %-34s %-6s %-30s %-30s %+6.1f%% %6.2f %6.2f  %s\n",
					m.Name, m.Unit, c.base, c.head, c.change*100, c.headWon, c.baseWon, c.verdict)
			}
		}
	}
	return nil
}

// loadRecords reads every run record under path, grouped by workload.
func loadRecords(path string) (map[string][]*record, error) {
	out := map[string][]*record{}
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			if !strings.HasPrefix(sc.Text(), `{"pipebench_record"`) {
				continue
			}
			var line map[string]*record
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			r := line["pipebench_record"]
			out[r.Workload] = append(out[r.Workload], r)
		}
		return sc.Err()
	})
	return out, err
}

func values(recs []*record, trace bool, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Trace == trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// outputVerdict compares the final outputs of runs with equal seeds.
func outputVerdict(base, head []*record) string {
	bySeed := map[int64]identity{}
	for _, r := range base {
		bySeed[r.Seed] = r.Output
	}
	common := 0
	for _, r := range head {
		if o, ok := bySeed[r.Seed]; ok {
			common++
			if o != r.Output {
				return fmt.Sprintf("changed (seed %d: %s → %s)", r.Seed, o.Fingerprint, r.Output.Fingerprint)
			}
		}
	}
	if common == 0 {
		return "unknown (no seed in common)"
	}
	return "identical"
}

type comparison struct {
	base, head       string
	change           float64 // relative change of the median, head vs base
	headWon, baseWon float64 // share of (base, head) pairs each side won
	verdict          string
}

// compareMetric compares two samples of one metric. The verdict is
// "better" when head wins at least nine tenths of all pairs and its
// median improves by more than the base's interquartile distance;
// "worse" when head's median is worse than base's by more than the bound
// (without a bound: the mirror of "better"); "unresolved" when the base's
// own spread is wider than the bound; "same" otherwise.
func compareMetric(base, head []float64, lowerBetter bool, bound *float64) comparison {
	bq, hq := quartiles(base), quartiles(head)
	c := comparison{
		base:   fmt.Sprintf("%.6g [%.6g %.6g]", bq[1], bq[0], bq[2]),
		head:   fmt.Sprintf("%.6g [%.6g %.6g]", hq[1], hq[0], hq[2]),
		change: ratio(hq[1]-bq[1], math.Abs(bq[1])),
	}
	var hw, bw int
	for _, b := range base {
		for _, h := range head {
			switch {
			case h == b:
			case (h < b) == lowerBetter:
				hw++
			default:
				bw++
			}
		}
	}
	pairs := float64(len(base) * len(head))
	c.headWon, c.baseWon = float64(hw)/pairs, float64(bw)/pairs
	gain := bq[1] - hq[1]
	if !lowerBetter {
		gain = -gain
	}
	iqr := bq[2] - bq[0]
	switch {
	case c.headWon >= 0.9 && gain > iqr:
		c.verdict = "better"
	case bound != nil && -gain > *bound*math.Abs(bq[1]):
		c.verdict = "worse"
	case bound == nil && c.baseWon >= 0.9 && -gain > iqr:
		c.verdict = "worse"
	case bound != nil && iqr > *bound*math.Abs(bq[1]):
		c.verdict = "unresolved"
	default:
		c.verdict = "same"
	}
	return c
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// default "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
