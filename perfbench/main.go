// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the sdfm packages, checks the workload's output, and
// prints the metrics named in BENCHMARK.json:
//
//	go run . -workload sim -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the workload twice (untraced, then with spans recorded around every
// call into a layer) and prints the per-layer metrics, the tracing
// overhead, and a Chrome trace of the traced pass. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spec     string
	outDir   string

	// onlineAgents and onlineRate shape the online workload's open loop;
	// BENCHMARK.json's command line fixes them.
	onlineAgents int
	onlineRate   float64
}

// outcome is what one workload pass measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string // first few failed checks, for the log

	setup     []float64 // seconds per set-up
	work      float64   // units of work done in the timed region
	elapsed   float64   // seconds in the timed region
	workUnit  string    // what one unit of work is
	latencies []float64 // milliseconds per timed operation
	latOp     string    // what one operation is

	// named are the workload's own user-facing numbers, printed by name
	// on every run; layers are per-layer values that do not come from
	// spans (simulated counts, runtime deltas).
	named  []namedValue
	layers map[string]float64
}

type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
}

func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n failed operations under one logged problem.
func (o *outcome) failN(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) addNamed(name string, value float64, unit, note string) {
	o.named = append(o.named, namedValue{name, value, unit, note})
}

func (o *outcome) layer(name string, v float64) {
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	o.layers[name] = v
}

// env is what a workload pass runs with. tr is nil on untraced passes.
type env struct {
	opts options
	tr   *tracer
	dir  string // scratch directory inside the checkout
}

var workloads = map[string]func(*env) (*outcome, error){
	"sim":    runSim,
	"tune":   runTune,
	"ingest": runIngest,
	"online": runOnline,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sim, tune, ingest or online")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed region, seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition naming the metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and traces")
	flag.IntVar(&o.onlineAgents, "online-agents", 0, "online: agent IDs multiplexed over the connections (set in BENCHMARK.json's command)")
	flag.Float64Var(&o.onlineRate, "online-rate", 0, "online: offered telemetry entries per second (set in BENCHMARK.json's command)")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark definition: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(o options, stdout io.Writer) error {
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sim, tune, ingest or online)", o.workload)
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	sp, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.outDir, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Each pass gets a directory of its own.
	passDir := func(name string) (string, error) {
		d := filepath.Join(dir, name)
		return d, os.Mkdir(d, 0o755)
	}

	pd, err := passDir("plain")
	if err != nil {
		return err
	}
	plain, err := fn(&env{opts: o, dir: pd})
	if err != nil {
		return err
	}
	res := result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricValue{}}
	printNamed(stdout, o.workload, "", plain)

	var values map[string]float64
	var metrics []specMetric
	if !o.trace {
		values, metrics = endToEndValues(plain), sp.EndToEnd
	} else {
		pd, err := passDir("traced")
		if err != nil {
			return err
		}
		tr := newTracer()
		traced, err := fn(&env{opts: o, dir: pd, tr: tr})
		if err != nil {
			return err
		}
		printNamed(stdout, o.workload, "traced ", traced)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		plain.problems = append(plain.problems, traced.problems...)
		values = layerValues(tr, traced)
		// Latencies are reported with the per-layer figures, from the
		// untraced pass. In a closed loop the median is the reciprocal of
		// throughput, so bounding it would add nothing but a second chance
		// of noise; the tail moves far more than any bound on a small
		// shared host.
		lat := sorted(plain.latencies)
		values["latency_p50_ms"] = quantile(lat, 0.5)
		values["latency_tail_ms"] = quantile(lat, tailQuantile(len(lat)))
		values["trace.overhead_pct"] = overheadPct(o.workload, plain, traced)
		metrics = sp.PerLayer
		path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.writeChrome(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chrome trace: %s (%d spans, %d dropped)\n", path, len(tr.spans), tr.dropped)
	}
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok && !o.trace {
			return fmt.Errorf("end-to-end metric %q not measured", m.Name)
		}
		// A per-layer metric the workload never reaches stays 0: the
		// workload bypasses that layer.
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, p := range plain.problems {
		fmt.Fprintln(stdout, "check failed:", p)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// endToEndValues turns an outcome into the end-to-end metrics.
func endToEndValues(o *outcome) map[string]float64 {
	v := map[string]float64{
		"setup_s":     median(o.setup),
		"peak_rss_mb": peakRSSMB(),
	}
	if o.elapsed > 0 {
		v["throughput_per_s"] = o.work / o.elapsed
	}
	return v
}

// overheadPct is how much tracing cost a workload, as a share of its
// untraced figure: the throughput lost, or for online, whose throughput
// is the offered rate, the median latency gained.
func overheadPct(workload string, plain, traced *outcome) float64 {
	if workload == "online" {
		p := median(plain.latencies)
		return 100 * (median(traced.latencies) - p) / p
	}
	p := plain.work / plain.elapsed
	return 100 * (p - traced.work/traced.elapsed) / p
}

func printNamed(w io.Writer, workload, prefix string, o *outcome) {
	s := sorted(o.latencies)
	q := tailQuantile(len(s))
	fmt.Fprintf(w, "%s%s: setup_s %.4f s (median of %d set-ups)\n", prefix, workload, median(o.setup), len(o.setup))
	fmt.Fprintf(w, "%s%s: throughput_per_s %.6g %s per second over %.3f s\n", prefix, workload, o.work/o.elapsed, o.workUnit, o.elapsed)
	fmt.Fprintf(w, "%s%s: latency p50 %.4f ms, p%g %.4f ms over %d %s (%d beyond the tail)\n",
		prefix, workload, quantile(s, 0.5), 100*q, quantile(s, q), len(s), o.latOp, beyond(len(s), q))
	for _, n := range o.named {
		fmt.Fprintf(w, "%s%s: %s %.6g %s", prefix, workload, n.name, n.value, n.unit)
		if n.note != "" {
			fmt.Fprintf(w, " (%s)", n.note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s%s: %d operations attempted, %d failed\n", prefix, workload, o.attempted, o.failed)
}

// deadline returns when a timed region that starts now must stop.
func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.opts.seconds * float64(time.Second)))
}
