// Command perfbench is the repository benchmark. From a seed it builds
// the fused KB and measures one of three workloads end to end — build,
// serve-hot or serve-cold — checking the outputs as it goes; with
// -trace 1 it instead attributes the workload's cost to each module by
// timing calls into the modules' public functions. See README.md.
//
// It prints a provenance block and every measured metric, then, as the
// last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}. It exits 1 when any output check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"akb/internal/obs"
)

// Workload sizes. Later changes are compared on these, so they are
// constants, not flags.
const (
	buildScale = 4
	serveScale = 8
)

// endToEnd lists the metrics printed with -trace 0 and perLayer those
// printed with -trace 1, in the order BENCHMARK.json declares them.
var (
	endToEnd = []string{"setup_s", "rss_median_mb", "op_alloc_kb"}
	perLayer = layerNames()
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's measurements, provenance and check outcomes.
type report struct {
	metrics   map[string]metric
	order     []string
	prov      [][2]string
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, value float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(key string, value any) {
	r.prov = append(r.prov, [2]string{key, fmt.Sprint(value)})
}

// ops counts attempted operations; fail counts one failed operation.
func (r *report) ops(n int64) { r.attempted += n }

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check is one output check that is also one attempted operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.ops(1)
	if !ok {
		r.fail(format, args...)
	}
}

type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	akb      string
	dir      string // per-run scratch directory
	nproc    int
	rep      *report
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "build, serve-hot or serve-cold")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	akb := fs.String("akb", ".bench_build/akb", "akb binary built from this tree")
	work := fs.String("work", ".bench_build", "directory for snapshots, traces and logs")
	coldBuild := fs.Bool("cold-build", false, "internal: run one build in this fresh process and print its wall time and digest")
	pins := fs.Int("write-pins", 0, "print pins.json for seeds 1..N and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	nproc := runtime.NumCPU()
	switch {
	case *pins > 0:
		if err := writePins(*pins, nproc); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *coldBuild:
		return coldBuildChild(*seed, nproc)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, akb: *akb, dir: dir, nproc: nproc, rep: newReport(),
	}
	b.provenance()
	var err error
	switch b.workload {
	case "build":
		err = b.runBuild()
	case "serve-hot", "serve-cold":
		err = b.runServe()
	default:
		err = fmt.Errorf("unknown workload %q (want build, serve-hot or serve-cold)", b.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return b.print()
}

func (b *bench) provenance() {
	version, commit := obs.BuildInfo()
	b.rep.note("workload", b.workload)
	b.rep.note("seed", b.seed)
	b.rep.note("trace", b.trace)
	b.rep.note("nproc", b.nproc)
	b.rep.note("GOMAXPROCS", runtime.GOMAXPROCS(0))
	b.rep.note("go", runtime.Version())
	b.rep.note("commit", commit+" ("+version+")")
	b.rep.note("cpu", cpuModel())
	b.rep.note("seconds", b.seconds.Seconds())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the provenance block, every measured metric and the
// result line, and returns the exit code.
func (b *bench) print() int {
	r := b.rep
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, p := range r.prov {
		fmt.Fprintf(w, "# %-22s %s\n", p[0], p[1])
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-34s %14s %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	names := endToEnd
	if b.trace {
		names = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, map[string]metric{}}
	var missing []string
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out.Metrics[n] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: internal error: metrics not measured: %s\n", strings.Join(missing, ", "))
		return 1
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(raw))
	if !out.Correct {
		return 1
	}
	return 0
}
