// Command perfbench is photon-go's end-to-end benchmark. One run boots
// a 2-rank in-process job over one transport, drives one workload for a
// fixed time, checks every result, and prints its metrics as one JSON
// object on the last line of standard output. See README.md.
//
//	perfbench --workload rma-latency --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	gort "runtime"
	"sort"
	"strings"
	"time"
)

// runner drives one measured phase of a workload on a booted job.
type runner interface {
	phase(dur time.Duration, traced bool) *phase
}

type workload struct {
	transport string
	params    map[string]any
	bufs      func(seed uint64) [][]byte
	runner    func(e *env, seed uint64) runner
}

var workloads = map[string]workload{
	"rma-latency": {
		transport: "shm",
		params: map[string]any{
			"outstanding": 1,
			"mix":         "40% 8 B put + 8 B reply put, 20% 64 B Send + 8 B reply put, 20% 8 B get, 20% 8 B FetchAdd",
		},
		bufs:   latencyBufs,
		runner: func(e *env, seed uint64) runner { return newLatency(e, seed) },
	},
	"rma-stream": {
		transport: "tcp",
		params: map[string]any{
			"window_per_rank": streamWindow,
			"injecting_ranks": ranks,
			"mix":             "55% put and 25% get log-uniform 8 B-64 KiB, 10% 8 B FetchAdd, 10% Send log-uniform 64 B-16 KiB",
			"put_regions":     fmt.Sprintf("%d x 1 KiB, %d x 64 KiB", streamSmallRegions, streamLargeRegions),
		},
		bufs:   streamBufs,
		runner: func(e *env, seed uint64) runner { return newStream(e, seed) },
	},
	"bsp-steps": {
		transport: "vsim",
		params: map[string]any{
			"step":          "8 KiB halo put + remote wait, AllreduceInPlace 8 float64, Barrier",
			"large_every":   bspLargeEvery,
			"large_float64": bspLargeLen,
			"fabric_model":  "zero delay",
		},
		bufs:   bspBufs,
		runner: func(e *env, seed uint64) runner { return newBSP(e, seed) },
	},
}

type options struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	root     string // checkout the program is built from (provenance)
	out      string // directory for span dumps; empty: no dump
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// run sets the job up, warms it, measures and reports. A run that saw
// a failed op returns a result with Correct false and the first error.
func run(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	e, setups, err := setUp(w.transport, func() [][]byte { return w.bufs(o.seed) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	rn := w.runner(e, o.seed)
	res := &result{}
	account := func(p *phase) error {
		a, f := p.attempted()
		res.Attempted += a
		res.Failed += f
		return p.err()
	}
	warm := o.dur / 10
	if warm > time.Second {
		warm = time.Second
	}
	if err := account(rn.phase(warm, false)); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	if !o.trace {
		p := rn.phase(o.dur, false)
		err := account(p)
		res.Metrics = endToEndMetrics(setups, p)
		res.Correct = res.Failed == 0
		return res, err
	}
	// Traced run: an untraced and a traced phase of equal length, then
	// the three transport floors.
	up := rn.phase(o.dur*2/5, false)
	if err := account(up); err != nil {
		return res, err
	}
	tp := rn.phase(o.dur*2/5, true)
	if err := account(tp); err != nil {
		return res, err
	}
	floors := map[string]*floor{}
	ftr := newTracer(time.Now())
	for _, t := range []string{"shm", "tcp", "vsim"} {
		if floors[t], err = measureFloor(t, o.dur/15, ftr); err != nil {
			res.Failed++
			return res, err
		}
	}
	var gap float64
	res.Metrics, gap = perLayerMetrics(o.workload, setups, up, tp, floors)
	if gap > reconcileTolerance {
		fmt.Fprintf(os.Stderr, "perfbench: self times miss the op latency by %.1f%% (tolerance %.0f%%)\n", 100*gap, 100*reconcileTolerance)
	}
	res.Correct = res.Failed == 0
	if o.out != "" {
		trs := map[string]*tracer{"floor": ftr}
		for r, rs := range tp.ranks {
			trs[fmt.Sprintf("rank%d", r)] = rs.tr
		}
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.csv", o.workload, o.seed))
		err := os.MkdirAll(o.out, 0o755)
		if err == nil {
			err = dumpSpans(path, trs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: span dump: %v\n", err)
		}
	}
	return res, nil
}

// provenance describes the host, the code and the inputs of a run.
func provenance(o options) map[string]any {
	w := workloads[o.workload]
	return map[string]any{
		"workload":   o.workload,
		"transport":  w.transport,
		"params":     w.params,
		"seed":       o.seed,
		"seconds":    o.dur.Seconds(),
		"trace":      o.trace,
		"nproc":      gort.NumCPU(),
		"gomaxprocs": gort.GOMAXPROCS(0),
		"go":         gort.Version(),
		"commit":     commit(o.root),
	}
}

// commit names the code under test: the git commit when the checkout is
// a git work tree, else a digest of the program's Go sources.
func commit(root string) string {
	if root == "" {
		return "unknown"
	}
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(b))
			}
		} else {
			return ref
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// watchdog bounds a whole run: a hang in the program must still end
// the command, with a failure.
const watchdog = 170 * time.Second

func main() {
	var o options
	var seconds int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "rma-latency, rma-stream or bsp-steps")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.root, "root", "", "checkout the program was built from")
	flag.StringVar(&o.out, "out", "", "directory for span dumps of traced runs")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o.dur, o.trace = time.Duration(seconds)*time.Second, trace == 1
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	rec, _ := json.Marshal(map[string]any{"record": provenance(o)})
	fmt.Println(string(rec))
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if res == nil || res.Metrics == nil {
		os.Exit(1)
	}
	if err != nil {
		res.Correct = false
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
