// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the library through its public functions, checks
// that every output is correct, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate, traced run prints the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration // measuring budget
	trace   bool
	minReps int
}

// workloads maps each workload name to its runner, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(cfg runConfig, res *result) error
}{
	{"sim-route", func(cfg runConfig, res *result) error { return runSim(simSizes["sim-route"], cfg, res) }},
	{"sim-chase", func(cfg runConfig, res *result) error { return runSim(simSizes["sim-chase"], cfg, res) }},
	{"net-udp", func(cfg runConfig, res *result) error { return runNet(netUDP, cfg, res) }},
}

// result collects one run's metrics, checks and notes.
type result struct {
	attempted, failed int64
	violations        []string
	e2e, layer        map[string]float64
	notes             []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) violation(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable lines and then the result object as
// the last line. Every metric the mode declares is printed; a per-layer
// metric the workload does not exercise reads 0.
func (r *result) report(w io.Writer, trace bool) {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
		if r.attempted > 0 {
			vals["check.failed_frac"] = float64(r.failed) / float64(r.attempted)
		}
	}
	out := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.violation("metric %s is not a number", d.Name)
			v = 0
		}
		if !trace && (!ok || v <= 0) {
			r.violation("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		r.violation("nothing was attempted")
		out.Attempted = 1
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", v)
	}
	out.Correct = len(r.violations) == 0 && r.failed == 0
	b, _ := json.Marshal(out) // only finite floats, strings and ints
	fmt.Fprintf(w, "%s\n", b)
}

// commitID names the code under test: the -commit flag, else the VCS
// revision stamped into the binary, else "unknown".
func commitID(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	commit := flag.String("commit", "", "identifier of the code under test, printed with the results")
	probe := flag.String("probe", "", "run a one-shot probe instead of a workload: udp-overload")
	flag.Parse()

	host := fmt.Sprintf("seed=%d nproc=%d gomaxprocs=%d go=%s commit=%s",
		*seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitID(*commit))
	if *probe != "" {
		fmt.Printf("# perfbench probe=%s %s\n", *probe, host)
		if err := runProbe(*probe, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var run func(runConfig, *result) error
	for _, w := range workloads {
		if w.name == *name {
			run = w.run
		}
	}
	if run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s trace=%d seconds=%d %s\n", *name, *trace, *seconds, host)
	res := newResult()
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, minReps: 3}
	if cfg.trace {
		cfg.minReps = 2 // one untraced and one traced repetition
	}
	if err := run(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res.report(os.Stdout, cfg.trace)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
