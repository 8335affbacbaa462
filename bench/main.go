// Command bench is the repository's one benchmark: four fixed
// workloads driven through the objects a deployment uses — the real
// cmd/emdserve binary over loopback HTTP and the public
// ShardSet → Gate → Engine stack in-process — with every answer path
// checked against a brute-force oracle. See README.md beside this
// file, and BENCHMARK.json at the module root for the contract.
//
//	bash bench/run.sh                                   all workloads, end-to-end metrics
//	bash bench/run.sh --trace 1 -trace-dir /tmp/spans   all workloads, per-layer metrics
//	bash bench/run.sh --workload index_gm --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -compare old.jsonl new.jsonl
//
// It is a module of its own (emdsearch/bench, replacing emdsearch with
// the parent directory), so the repository's go build ./... and
// go test ./... do not see it. run.sh builds it and starts it from the
// repository root, where it builds ./cmd/emdserve; it writes only below
// -tmp and removes what it wrote.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

// setups is how often a run repeats set-up; setup_s is the median.
const setups = 3

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four, each in its own process)")
		seed     = flag.Int64("seed", 42, "seed of corpus, queries and op order")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		out      = flag.String("out", "", "append the full result, one JSON object per line, to this file")
		traceDir = flag.String("trace-dir", "", "with --trace 1: write <workload>.spans.jsonl here")
		tmp      = flag.String("tmp", ".bench_build/tmp", "scratch directory for the emdserve binary and WAL directories; what a run writes there it removes")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare old.jsonl new.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.jsonl new.jsonl")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -help")
		return 2
	}
	if *workload == "" {
		return runAll(*out)
	}
	sp, ok := findSpec(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*tmp, sp.Name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cleanup := func() {
		stopAllChildren()
		os.RemoveAll(dir)
	}
	defer cleanup()
	// Ctrl-C or a driver's SIGTERM must not leave an emdserve behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	cfg := config{seed: *seed, seconds: *seconds, setups: setups, tmp: dir, traceDir: *traceDir}
	res, err := runWorkload(sp, cfg, *trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.Name, err)
		return 1
	}
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	printReport(res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// Every metric of the contract must be there: a percentile that was
	// refused for want of samples is a failed run, not a shorter report.
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := res.Metrics[d.Name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", sp.Name, d.Name)
			return 1
		}
	}
	// The last line of standard output is the contract's result object.
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload dispatches one run.
func runWorkload(sp spec, cfg config, trace int) (*result, error) {
	switch {
	case trace == 1:
		return runTraced(sp, cfg)
	case sp.Ingest:
		return runIngest(sp, cfg)
	default:
		return runReadOnly(sp, cfg)
	}
}

// runAll runs every workload in a process of its own, so that
// peak_rss_mb is per workload, passing the command line through.
func runAll(out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, sp := range specs {
		cmd := exec.Command(self, append([]string{"-workload", sp.Name}, os.Args[1:]...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.Name, err)
			code = 1
		}
	}
	return code
}

// printReport writes the human-readable table to standard error:
// every metric by name with its unit and the number of samples behind it.
func printReport(res *result) {
	w := os.Stderr
	fmt.Fprintf(w, "\n== %s  seed=%d trace=%d GOMAXPROCS=%d  attempted=%d failed=%d correct=%v",
		res.Workload, res.Seed, res.Trace, res.GOMAXPROCS, res.Attempted, res.Failed, res.Correct)
	if res.AnswersFNV != "" {
		fmt.Fprintf(w, " answers_fnv=%s", res.AnswersFNV)
	}
	fmt.Fprintln(w)
	tables := [][]metricDef{endToEnd, extras}
	if res.Trace == 1 {
		tables = [][]metricDef{perLayer}
	}
	for _, tab := range tables {
		for _, d := range tab {
			v, ok := res.Metrics[d.Name]
			if !ok {
				v, ok = res.Extra[d.Name]
			}
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-36s %14.6g %-6s", d.Name, v.Value, v.Unit)
			if n := res.Samples[d.Name]; n > 0 {
				fmt.Fprintf(w, " n=%d", n)
			}
			fmt.Fprintln(w)
		}
	}
	notes := append([]string(nil), res.Notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
