package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"akb/internal/core"
	"akb/internal/store"
)

// coldRuns is how many fresh processes measure the build's set-up time;
// the median is reported.
const coldRuns = 3

// buildStages are the pipeline stages the build workload runs, by their
// per-layer metric prefix.
var buildStages = []string{
	"substrates.world", "substrates.dbpedia", "substrates.freebase", "substrates.stream",
	"substrates.sites", "substrates.corpus", "extract.kbx", "extract.qsx", "seeds",
	"extract.domx", "extract.textx", "union", "fusion", "augment",
}

// stageLayer maps a scheduler stage name ("extract/domx") to its layer
// name ("extract.domx").
func stageLayer(stage string) string { return strings.ReplaceAll(stage, "/", ".") }

// coldBuildChild is the fresh process whose first build is the build
// workload's set-up time. It prints that build's wall time in seconds and
// the fused KB digest, for the parent to compare with its own runs.
func coldBuildChild(seed int64, nproc int) int {
	r, err := timedBuild(pipeline(seed, buildScale, nproc))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cold build:", err)
		return 1
	}
	fmt.Println(r.wall.Seconds(), factsDigest(store.ResultFacts(r.res)))
	return 0
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// buildRun is one measured pipeline run.
type buildRun struct {
	res   *core.Result
	wall  time.Duration
	cpu   time.Duration
	alloc memSample
}

func timedBuild(p *core.Pipeline) (buildRun, error) {
	m0, c0, t0 := readMem(), cpuTime(), time.Now()
	res, err := p.Run(context.Background())
	wall := time.Since(t0)
	return buildRun{res: res, wall: wall, cpu: cpuTime() - c0, alloc: readMem().sub(m0)}, err
}

func (b *bench) runBuild() error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	b.rep.note("scale", buildScale)
	b.rep.note("parallelism", b.nproc)
	if b.trace {
		return b.traceBuild(pins)
	}
	rep := b.rep

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var cold []float64
	var coldDigests []string
	for i := 0; i < coldRuns; i++ {
		cmd := exec.Command(exe, "-cold-build", "-seed", fmt.Sprint(b.seed))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("cold build process: %w", err)
		}
		var wall float64
		var digest string
		if _, err := fmt.Sscan(string(out), &wall, &digest); err != nil {
			return fmt.Errorf("cold build process printed %q: %w", out, err)
		}
		cold = append(cold, wall)
		coldDigests = append(coldDigests, digest)
	}

	var wall, cpu, alloc []float64
	digest := ""
	start := time.Now()
	rss := sampleRSS(os.Getpid())
	for len(wall) < 3 || time.Since(start) < b.seconds {
		r, err := timedBuild(pipeline(b.seed, buildScale, b.nproc))
		rep.ops(1)
		if err != nil {
			rep.fail("build: %v", err)
			continue
		}
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		alloc = append(alloc, float64(r.alloc.allocBytes)/1e6)
		d := factsDigest(store.ResultFacts(r.res))
		if digest == "" {
			digest = d
			checkScore(rep, pins, b.seed, buildScale, scoreOf(r.res))
			rep.note("facts", len(store.ResultFacts(r.res)))
		}
		rep.check(d == digest, "fused-facts digest of timed run %d is %s, first run %s", len(wall), d, digest)
	}
	for i, d := range coldDigests {
		rep.check(d == digest, "fused-facts digest of cold process %d is %s, timed runs %s", i, d, digest)
	}
	rep.note("facts_digest", digest)
	rep.note("runs", len(wall))

	rep.set("setup_s", median(cold), "s")
	rep.set("build_s", median(wall), "s")
	rep.set("build_cpu_s", median(cpu), "s")
	rep.set("build_alloc_mb", median(alloc), "MB")
	rep.set("rss_mb", procMB(os.Getpid(), "VmHWM"), "MB")
	rep.set("rss_median_mb", rss.median(), "MB")
	rep.set("op_cpu_ms", median(cpu)*1000, "ms")
	rep.set("op_alloc_kb", median(alloc)*1000, "KB")
	rep.set("error_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	return nil
}

// traceBuild is the build workload's traced run: serial pipeline runs with
// a stage hook that closes the previous stage's span and opens the next,
// taking an allocation snapshot at each boundary. Serial runs make the
// stage spans tile the run, so they must sum to its wall time.
func (b *bench) traceBuild(pins map[string]map[string]fusionScore) error {
	rep := b.rep
	const pairs = 3

	// A parallel run first ties the serial digests to the timed runs'
	// layout, and takes the process's first-run costs out of the pairs.
	r, err := timedBuild(pipeline(b.seed, buildScale, b.nproc))
	rep.ops(1)
	if err != nil {
		return fmt.Errorf("parallel build: %w", err)
	}
	digest := factsDigest(store.ResultFacts(r.res))
	rep.note("facts_digest", digest)

	tr := newTracer()
	costs := map[string][]memSample{}
	var last *core.Result
	var rowsSum, wallSum time.Duration
	plainRun := func(i int) (time.Duration, error) {
		r, err := timedBuild(pipeline(b.seed, buildScale, 1))
		rep.ops(1)
		if err != nil {
			return 0, fmt.Errorf("untraced serial build: %w", err)
		}
		d := factsDigest(store.ResultFacts(r.res))
		rep.check(d == digest, "digest of untraced serial run %d is %s, parallel run %s", i, d, digest)
		return r.wall, nil
	}
	tracedRun := func(i int) (time.Duration, error) {
		root := tr.begin("build", -1, int64(i))
		open, openName := -1, ""
		var openMem memSample
		closeStage := func(now memSample) {
			if open >= 0 {
				tr.end(open)
				costs[openName] = append(costs[openName], now.sub(openMem))
			}
		}
		hook := func(stage string) {
			now := readMem()
			closeStage(now)
			openName = stageLayer(stage)
			openMem = now
			open = tr.begin(openName, root, int64(i))
		}
		start := time.Now()
		res, err := pipeline(b.seed, buildScale, 1, core.WithStageHook(hook)).Run(context.Background())
		closeStage(readMem())
		tr.end(root)
		wall := time.Since(start)
		rep.ops(1)
		if err != nil {
			return 0, fmt.Errorf("traced serial build: %w", err)
		}
		d := factsDigest(store.ResultFacts(res))
		rep.check(d == digest, "digest of traced serial run %d is %s, parallel run %s", i, d, digest)
		last = res
		wallSum += wall
		return wall, nil
	}
	// Each pair runs both ways, in alternating order; the median ratio of
	// traced to untraced wall time, less one, is the tracing overhead.
	runs := [2]func(int) (time.Duration, error){plainRun, tracedRun}
	var ratios, traced []float64
	for i := 0; i < pairs; i++ {
		var wall [2]time.Duration // untraced, traced
		for k := range runs {
			which := (i + k) % 2
			w, err := runs[which](i)
			if err != nil {
				return err
			}
			wall[which] = w
		}
		ratios = append(ratios, wall[1].Seconds()/wall[0].Seconds())
		traced = append(traced, wall[1].Seconds())
	}
	checkScore(rep, pins, b.seed, buildScale, scoreOf(last))

	self := tr.selfByName()
	for name, ds := range self {
		if name == "build" {
			continue
		}
		for _, d := range ds {
			rowsSum += d
		}
	}
	unattributed := 1 - float64(rowsSum)/float64(wallSum)
	rep.check(unattributed < 0.05 && unattributed > -0.05,
		"stage rows sum to %v of %v traced serial wall time (%.1f%% unattributed, limit 5%%)", rowsSum, wallSum, 100*unattributed)
	rep.set("trace.unattributed_frac", unattributed, "ratio")
	rep.set("trace.overhead_frac", median(ratios)-1, "ratio")
	rep.set("build.serial_s", median(traced), "s")

	for _, st := range buildStages {
		var ms, allocs, mb []float64
		for _, d := range self[st] {
			ms = append(ms, float64(d)/1e6)
		}
		for _, m := range costs[st] {
			allocs = append(allocs, float64(m.allocObjects))
			mb = append(mb, float64(m.allocBytes)/1e6)
		}
		rep.set(st+".ms", median(ms), "ms")
		rep.set(st+".allocs", median(allocs), "count")
		rep.set(st+".mb", median(mb), "MB")
	}
	for name := range self {
		if name != "build" && !slices.Contains(buildStages, name) {
			rep.note("unlisted_stage", name)
		}
	}
	b.stageStats(last)
	zeroServeLayers(rep)
	return tr.write(filepath.Join(b.dir, "spans.json"))
}

// stageStats reports the work counts and useful-work ratios the pipeline
// result carries.
func (b *bench) stageStats(res *core.Result) {
	for _, st := range res.Stats() {
		switch {
		case st.Stage == core.StageKBX || st.Stage == core.StageDOMX || st.Stage == core.StageTextX:
			b.rep.set(stageLayer(st.Stage)+".statements", float64(st.Statements), "count")
			if st.Stage != core.StageKBX {
				b.rep.set(stageLayer(st.Stage)+".precision", st.Precision, "ratio")
			}
		case strings.HasPrefix(st.Stage, core.StageFusion):
			b.rep.set("fusion.claims", float64(st.Statements), "count")
		case st.Stage == core.StageAugment:
			b.rep.set("augment.facts", float64(st.Statements), "count")
		}
	}
	m := res.FusionMetrics
	b.rep.note("fusion", m.String())
}
