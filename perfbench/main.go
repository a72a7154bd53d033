// Command perfbench is the repository benchmark: three closed-loop
// workloads against six in-process CDD nodes reached over loopback TCP.
// See README.md for what each workload stresses and which per-layer
// metric should move which end-to-end metric.
//
//	perfbench --workload oltp|stream-grown|repair --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload twice, untraced and
// then with the layer decorators of trace.go, and reports the per-layer
// metrics plus the tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bufpool"
)

var workloads = map[string]func(context.Context, env) (*result, error){
	"oltp":         runOLTP,
	"stream-grown": runStream,
	"repair":       runRepair,
}

// endToEnd and perLayer are the reported metrics and their units, as
// declared in BENCHMARK.json.
var endToEnd = map[string]string{
	"setup_s":           "s",
	"heap_peak_mb":      "MB",
	"ops_per_s":         "1/s",
	"read_p50_us":       "us",
	"read_p99_us":       "us",
	"write_p50_us":      "us",
	"write_p99_us":      "us",
	"read_mb_s":         "MB/s",
	"write_mb_s":        "MB/s",
	"redundancy_lag_ms": "ms",
	"verify_mb_s":       "MB/s",
	"resync_s":          "s",
	"rebuild_mb_s":      "MB/s",
	"rs_write_mb_s":     "MB/s",
	"rs_rebuild_mb_s":   "MB/s",
}

// overheadOf lists the end-to-end metrics whose tracing overhead the
// traced run reports as trace.overhead_frac.<metric>.
var overheadOf = []string{"ops_per_s", "read_p50_us", "write_p50_us", "read_mb_s", "write_mb_s"}

var perLayer = func() map[string]string {
	m := map[string]string{
		"core.self_us.read":               "us",
		"core.self_us.write":              "us",
		"core.dev_calls_per_op.read":      "count",
		"core.dev_calls_per_op.write":     "count",
		"core.verify_dev_calls_per_block": "count",
		"core.self_s.rebuild":             "s",
		"cdd.notify_us.bg-write":          "us",
		"cdd.inflight_max":                "count",
		"cdd.errors":                      "count",
		"cdd.retries":                     "count",
		"cdd.node.bg_apply_lag_p50_us":    "us",
		"store.busy_us_per_mib.read":      "us/MiB",
		"store.busy_us_per_mib.write":     "us/MiB",
		"store.ops":                       "count",
		"raid.rs.dev_calls_per_stripe":    "count",
		"raid.rs.self_s.rebuild":          "s",
		"parity.encode_mb_s":              "MB/s",
		"parity.reconstruct_mb_s":         "MB/s",
		"parity.reconstruct_allocs":       "count",
		"intent.dirty_blocks":             "count",
		"intent.copied_per_written":       "ratio",
		"bufpool.outstanding":             "count",
		"runtime.cpu_us_per_op":           "us",
		"runtime.allocs_per_op":           "count",
		"runtime.alloc_bytes_per_op":      "B",
		"runtime.gc_cycles":               "count",
	}
	for _, k := range []string{kRead, kWrite, kFlush} {
		m["cdd.call_p50_us."+k] = "us"
		m["cdd.call_p99_us."+k] = "us"
		m["transport.us_per_call."+k] = "us"
	}
	for _, k := range []string{kRead, kWrite, kBG, kFlush} {
		m["cdd.calls."+k] = "count"
		m["cdd.node.handle_p50_us."+k] = "us"
		m["cdd.node.self_us."+k] = "us"
	}
	for _, k := range []string{kRead, kWrite, kBG} {
		m["cdd.bytes."+k] = "B"
	}
	for _, k := range overheadOf {
		m["trace.overhead_frac."+k] = "ratio"
	}
	return m
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: oltp, stream-grown or repair")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", names())
		return 2
	}
	fmt.Println(hostLine())
	out, err := measure(context.Background(), w, *seed, time.Duration(*secs)*time.Second, *traced == 1)
	if out == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	b, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		return 2
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

func names() string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return strings.Join(n, "|")
}

// measure runs the workload and reduces it to the reported metrics. A
// nil output means the run could not be set up; an error with an output
// means it ran and failed its checks.
func measure(ctx context.Context, w func(context.Context, env) (*result, error), seed uint64, dur time.Duration, traced bool) (*output, error) {
	pool0 := poolOutstanding()
	var (
		res   *result
		layer = map[string]float64{}
		err   error
	)
	if !traced {
		res, err = w(ctx, env{seed: seed, dur: dur, setups: 3, cycles: 2})
	} else {
		// An untraced pass, then a traced pass of the same length: the
		// difference is the tracing overhead.
		var plain *result
		plain, err = w(ctx, env{seed: seed, dur: dur / 2, setups: 1})
		if err == nil {
			t := newTracer(blockSize)
			res, err = w(ctx, env{seed: seed, dur: dur / 2, t: t, setups: 1, cycles: 1})
			if res != nil {
				t.layerMetrics(layer)
				for k, v := range res.layer {
					layer[k] = v
				}
				// Runtime costs come from the untraced pass: the
				// decorators allocate.
				for k, v := range plain.layer {
					if strings.HasPrefix(k, "runtime.") {
						layer[k] = v
					}
				}
				for _, k := range overheadOf {
					if b := plain.e2e[k]; b != 0 {
						layer["trace.overhead_frac."+k] = (res.e2e[k] - b) / b
					}
				}
				res.attempted += plain.attempted
				res.failed += plain.failed
				res.wrong += plain.wrong
			}
		} else {
			res = plain
		}
		if res != nil {
			calibrateParity(layer)
		}
	}
	if res == nil {
		return nil, err
	}
	// Every pool buffer the run took must be back once the nodes are
	// closed.
	leaked := poolOutstanding() - pool0
	layer["bufpool.outstanding"] = float64(leaked)
	out := &output{
		Correct:   err == nil && res.wrong == 0 && res.failed == 0 && leaked == 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	switch {
	case err != nil:
		out.Failed++
	case res.wrong > 0:
		err = fmt.Errorf("%d blocks read back wrong", res.wrong)
	case leaked != 0:
		err = fmt.Errorf("%d pool buffers outstanding after the run", leaked)
	}
	want, got := endToEnd, res.e2e
	if traced {
		want, got = perLayer, layer
	}
	for k, unit := range want {
		out.Metrics[k] = metric{Value: got[k], Unit: unit}
	}
	return out, err
}

// poolOutstanding counts the buffer-pool buffers callers hold: Gets not
// matched by a Put. Puts the pool dropped are not counted as returns:
// they are buffers that never came from the pool (the node hands fresh
// small encodings to the recycling server, which puts them back too).
func poolOutstanding() int64 {
	s := bufpool.Snapshot()
	return s.Gets - (s.Puts - s.Drops)
}

// hostLine records the host every result was measured on.
func hostLine() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					model = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
