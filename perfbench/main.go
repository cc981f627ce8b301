// Command perfbench is the repository's benchmark. It drives one workload
// through the system's public entry points for a fixed time, checks that
// the outputs are correct, and prints the workload's metrics as one JSON
// object on the last line of standard output:
//
//	perfbench --workload ingest --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// makes one untraced round, then traced rounds that time each layer from
// the benchmark's own decorators and probes; it prints the per-layer
// metrics and writes its spans under .bench_build/traces. BENCHMARK.json
// at the repository root lists the workloads and metrics; README.md in
// this directory says what each one measures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// End-to-end metrics, printed by untraced runs. Each workload fills every
// one; README.md gives each workload's reading of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"heap_live_mb", "MB"},
	{"type_accuracy", "ratio"},
}

// Per-layer metrics, printed by traced runs. A layer a workload does not
// exercise reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"extract.us_per_msg", "us"},
	{"classify.us_per_msg", "us"},
	{"ner.us_per_msg", "us"},
	{"disambig.us_per_call", "us"},
	{"gazetteer.fuzzy_us_per_call", "us"},
	{"qa.us_per_ask", "us"},
	{"qa.self_us_per_ask", "us"},
	{"shard.query_us_per_ask", "us"},
	{"shard.rows_per_answer", "count"},
	{"integrate.us_per_msg", "us"},
	{"integrate.msgs_per_batch", "count"},
	{"integrate.merge_ratio", "ratio"},
	{"mq.submit_p50_us", "us"},
	{"mq.ack_batch_us", "us"},
	{"mq.backlog_max", "count"},
	{"coordinator.busy_share", "ratio"},
	{"readpath.hit_ratio", "ratio"},
	{"readpath.invalidations_per_write", "ratio"},
	{"feedback.submit_us", "us"},
	{"feedback.flush_ms", "ms"},
	{"feedback.applied_ratio", "ratio"},
	{"persist.bytes_per_record", "B"},
	{"persist.checkpoint_ms", "ms"},
	{"server.self_us_per_ask", "us"},
	{"server.self_us_per_submit", "us"},
	{"ner.f1", "ratio"},
	{"integrate.fact_accuracy", "ratio"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// params are one run's settings.
type params struct {
	seed   int64
	budget time.Duration
	traced bool
	sz     sizes
	// dir is the run's scratch directory inside the checkout: data
	// directories and the probe WAL live here and are removed with it.
	dir string
}

// report is what a workload run produces.
type report struct {
	attempted, failed int
	// problems lists failed correctness checks; empty means correct.
	problems []string
	metrics  map[string]float64
	// detail holds the workload's own figures, printed by name before
	// the result line.
	detail map[string]float64
	spans  []span
	// digest hashes the answers of an ask-miss run's first round.
	digest string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, detail: map[string]float64{}}
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, params) (*report, error){
	"ingest":      runIngest,
	"ask-miss":    runAskMiss,
	"serve-mixed": runServeMixed,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: ingest, ask-miss or serve-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	dir := filepath.Join(".bench_build", "tmp", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p := params{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, sz: full, dir: dir}
	fmt.Println(environment(dir))

	rep, err := fn(context.Background(), p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if p.traced {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.spans), path)
	}
	for _, pr := range rep.problems {
		fmt.Println("INCORRECT:", pr)
	}
	fmt.Println(detailLine(*workload, rep.detail))
	line, err := resultLine(rep, p.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// resultLine renders the JSON result object: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one.
func resultLine(rep *report, traced bool) (string, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range names {
		v, ok := rep.metrics[m.name]
		if !ok {
			return "", fmt.Errorf("workload did not measure %s", m.name)
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// detailLine prints a workload's own figures in name order.
func detailLine(workload string, detail map[string]float64) string {
	keys := make([]string, 0, len(detail))
	for k := range detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("detail " + workload + ":")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.6g", k, detail[k])
	}
	return b.String()
}

// environment describes the machine a result was measured on.
func environment(dir string) string {
	return fmt.Sprintf("env: gomaxprocs=%d nproc=%d cpu=%q go=%s tmpfs=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), fsType(dir))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem dir lives on, by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
