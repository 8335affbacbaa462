package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// readResults reads a file written with -out: one result per line.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var all []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := new(result)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		all = append(all, r)
	}
	return all, sc.Err()
}

// series collects, per workload and metric, the values of all runs of
// one side; fnv collects each read-only workload's answer hashes, by seed.
type series struct {
	vals map[string]map[string][]float64
	fnv  map[string]map[string]bool
	bad  map[string]int // runs that were not correct
}

func collect(rs []*result) *series {
	s := &series{map[string]map[string][]float64{}, map[string]map[string]bool{}, map[string]int{}}
	for _, r := range rs {
		if s.vals[r.Workload] == nil {
			s.vals[r.Workload] = map[string][]float64{}
			s.fnv[r.Workload] = map[string]bool{}
		}
		for _, m := range []map[string]value{r.Metrics, r.Extra} {
			for name, v := range m {
				s.vals[r.Workload][name] = append(s.vals[r.Workload][name], v.Value)
			}
		}
		if r.AnswersFNV != "" {
			s.fnv[r.Workload][fmt.Sprintf("seed=%d:%s", r.Seed, r.AnswersFNV)] = true
		}
		if !r.Correct {
			s.bad[r.Workload]++
		}
	}
	return s
}

// verdict judges one metric of one workload: new's median against
// old's, by the metric's direction and bound.
//
//	better      improved by more than the bound
//	within      no worse than the bound allows
//	worse       worse by more than the bound
//	unresolved  either side's quartile spread is wider than the bound,
//	            so the runs cannot tell
//	info        a per-layer metric: no bound, reported only
func verdict(d metricDef, bounded bool, old, new []float64) string {
	if !bounded {
		return "info"
	}
	mo, mn := median(old), median(new)
	if d.Bound > 0 && (quartileSpread(old) > d.Bound || quartileSpread(new) > d.Bound) {
		return "unresolved"
	}
	change := ratio(mn-mo, mo) // positive: grew
	if mo == 0 {
		change = mn // an exact-zero metric (failed_frac): any growth is worse
	}
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "within"
}

// compareFiles prints every workload x metric row of two -out files and
// returns the exit code: 1 if any row is worse, a read-only workload's
// answers_fnv changed, or a run was not correct.
func compareFiles(oldPath, newPath string, w io.Writer) int {
	oldR, err := readResults(oldPath)
	if err == nil && len(oldR) == 0 {
		err = fmt.Errorf("%s holds no results", oldPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	newR, err := readResults(newPath)
	if err == nil && len(newR) == 0 {
		err = fmt.Errorf("%s holds no results", newPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	so, sn := collect(oldR), collect(newR)
	code := 0
	fmt.Fprintf(w, "%-13s %-34s %-6s %13s %13s %8s %7s %7s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "change", "spread", "spread", "verdict")
	for _, sp := range specs {
		for ti, tab := range [][]metricDef{endToEnd, extras, perLayer} {
			for _, d := range tab {
				o, n := so.vals[sp.Name][d.Name], sn.vals[sp.Name][d.Name]
				if len(o) == 0 || len(n) == 0 {
					continue
				}
				// gen_late_p99_ms describes the load generator, not the system.
				v := verdict(d, ti < 2 && d.Name != "gen_late_p99_ms", o, n)
				if v == "worse" {
					code = 1
				}
				fmt.Fprintf(w, "%-13s %-34s %-6s %13.6g %13.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
					sp.Name, d.Name, d.Unit, median(o), median(n),
					100*ratio(median(n)-median(o), median(o)), 100*quartileSpread(o), 100*quartileSpread(n), v)
			}
		}
		if fo, fn := keys(so.fnv[sp.Name]), keys(sn.fnv[sp.Name]); len(fo) > 0 && len(fn) > 0 {
			// One hash per seed on each side, and the same on both.
			same := fmt.Sprint(fo) == fmt.Sprint(fn) && len(fo) == seeds(fo)
			fmt.Fprintf(w, "%-13s answers_fnv old=%v new=%v same=%v\n", sp.Name, fo, fn, same)
			if !same {
				code = 1
			}
		}
		if so.bad[sp.Name]+sn.bad[sp.Name] > 0 {
			fmt.Fprintf(w, "%-13s incorrect runs: old=%d new=%d\n", sp.Name, so.bad[sp.Name], sn.bad[sp.Name])
			code = 1
		}
	}
	return code
}

// seeds counts the distinct "seed=N:" prefixes of fnv keys.
func seeds(ks []string) int {
	seen := map[string]bool{}
	for _, k := range ks {
		seen[k[:strings.IndexByte(k, ':')]] = true
	}
	return len(seen)
}

func keys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
