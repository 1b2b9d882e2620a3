package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
)

// worsening is how much worse b's median is than a's, as a share of
// a's: positive is worse whichever way the metric points.
func worsening(d metricDef, a, b []float64) float64 {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (ma - mb) / ma
	}
	return (mb - ma) / ma
}

// spread is the distance between the quartiles as a share of the
// median, the driver's measure of how far runs of one program differ.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// everyRunBetter reports whether each value of b beats each value of a.
func everyRunBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if d.Better == "higher" && y <= x || d.Better == "lower" && y >= x {
				return false
			}
		}
	}
	return true
}

// verdict judges b against a on one metric of one workload. Worse is a
// median past the bound. A gain needs every run of b to beat every run
// of a by more than the bound, so one lucky run cannot claim it. Where
// the runs of either side spread wider than the bound the difference
// cannot be told from noise.
func verdict(d metricDef, a, b []float64) string {
	w := worsening(d, a, b)
	switch {
	case w > d.Bound:
		return "worse"
	case w < -d.Bound && everyRunBetter(d, a, b):
		return "better"
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return "unresolved"
	}
	return "same"
}

// compareFiles prints one row per workload and end-to-end metric of
// two results files.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "delta", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n", wl.name, d.Name,
				median(xa), median(xb), 100*(median(xb)-median(xa))/median(xa), 100*d.Bound, verdict(d, xa, xb))
		}
	}
	return nil
}

// selfCheck does what the driver does to accept the benchmark: every
// workload on ten seeds, twice over, on the same code. Each metric's
// spread over a set (setup_s excepted) and the drift of its median
// from the first set to the second must stay within its bound. It
// prints every spread, so the bounds are evidence.
func selfCheck(ctx context.Context, cfg runConfig, w io.Writer) (bool, error) {
	seeds := make([]int64, 10)
	for i := range seeds {
		seeds[i] = cfg.seed + int64(i)
	}
	var sets [2]*resultSet
	for i := range sets {
		set, err := runAll(ctx, cfg, seeds, []int{0}, io.Discard)
		if err != nil {
			return false, err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("selfcheck-%c.json", 'a'+i))
		if err := writeJSON(path, set); err != nil {
			return false, err
		}
		fmt.Fprintln(w, "wrote", path)
		sets[i] = set
	}
	ok := sets[0].correct() && sets[1].correct()
	if !ok {
		fmt.Fprintln(w, "FAIL: a run reported wrong answers or failed requests")
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %9s %9s %8s %7s\n", "workload", "metric", "median", "spread a", "spread b", "drift", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0].values(wl.name, d.Name), sets[1].values(wl.name, d.Name)
			sa, sb, drift := spread(a), spread(b), worsening(d, a, b)
			mark := ""
			if d.Name != "setup_s" && max(sa, sb) > d.Bound || drift > d.Bound {
				mark, ok = "  FAIL", false
			} else if d.Name != "setup_s" && max(sa, sb) > d.Bound/3 {
				mark = "  (spread over a third of the bound)"
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %8.2f%% %8.2f%% %+7.2f%% %6.1f%%%s\n",
				wl.name, d.Name, median(a), 100*sa, 100*sb, 100*drift, 100*d.Bound, mark)
		}
	}
	return ok, nil
}
