package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary.
type span struct {
	name       string
	id, parent int64 // parent 0: a root span
	req        int64 // request the span serves; 0 when none
	lane       int   // Chrome-trace thread row
	start, end time.Duration
}

// maxSpans bounds the in-memory span buffer; later spans are counted as
// dropped instead of growing memory without limit.
const maxSpans = 1 << 21

// tracer keeps spans in memory for the traced pass and writes them out as
// a Chrome trace when the run ends. A nil *tracer records nothing, so
// untraced passes pay one nil check per boundary.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanHandle is an open span; end records it.
type spanHandle struct {
	t *tracer
	s span
}

// start opens a span. On a nil tracer it returns a handle whose end does
// nothing and whose id is 0.
func (t *tracer) start(name string, parent, req int64, lane int) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	return spanHandle{t: t, s: span{
		name: name, id: t.nextID.Add(1), parent: parent, req: req, lane: lane, start: time.Since(t.t0),
	}}
}

func (h spanHandle) id() int64 { return h.s.id }

// end closes the span.
func (h spanHandle) end() { h.endAs(h.s.name) }

// endAs closes the span under a name chosen once the call has returned.
func (h spanHandle) endAs(name string) {
	if h.t == nil {
		return
	}
	h.s.name = name
	h.s.end = time.Since(h.t.t0)
	h.t.add(h.s)
}

// newReq allocates a request ID shared by the spans of one request.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// durations returns the durations, in milliseconds, of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, per span named name, its duration minus the time its
// child spans cover, in milliseconds. Children of one parent never
// overlap here: each parent's callees run on the parent's goroutine.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start-child[s.id]))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	t.mu.Lock()
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"req":%d}}`,
			name, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.req)
	}
	t.mu.Unlock()
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerValues computes the per-layer metrics of a traced pass: span
// aggregates plus the values the workload measured directly.
func layerValues(t *tracer, o *outcome) map[string]float64 {
	v := map[string]float64{}
	pct := func(name string, q float64) float64 { return quantile(sorted(t.durations(name)), q) }
	sum := func(name string) float64 {
		var s float64
		for _, d := range t.durations(name) {
			s += d
		}
		return s
	}
	present := func(name string) bool { return len(t.durations(name)) > 0 }

	if present("cluster.step") {
		v["cluster.step_ms_p50"] = pct("cluster.step", 0.5)
		v["cluster.step_ms_p99"] = pct("cluster.step", 0.99)
		v["node.step_ms_p50"] = pct("node.step", 0.5)
		v["node.step_ms_p99"] = pct("node.step", 0.99)
	}
	if present("tune.pass") {
		v["tracestore.write_ms"] = median(t.durations("tracestore.write"))
		v["tracestore.scan_ms"] = median(t.durations("tracestore.scan"))
		v["model.compile_ms"] = median(t.durations("model.compile"))
		v["model.compile_self_ms"] = v["model.compile_ms"] - v["tracestore.scan_ms"]
		v["model.replay_ms_p50"] = pct("model.replay", 0.5)
		v["gp.self_ms"] = median(t.selfTimes("gp.autotune"))
		v["tuner.rollout_ms"] = median(t.durations("tuner.rollout"))
	}
	if present("controlplane.report_handler") {
		v["controlplane.report_handler_us_p50"] = 1e3 * pct("controlplane.report_handler", 0.5)
		v["controlplane.report_handler_us_p99"] = 1e3 * pct("controlplane.report_handler", 0.99)
		v["loadgen.client_us_p50"] = 1e3 * pct("loadgen.report", 0.5)
	}
	if present("controlplane.poll_handler") {
		v["controlplane.poll_handler_us_p99"] = 1e3 * pct("controlplane.poll_handler", 0.99)
	}
	if present("controlplane.tick") {
		v["controlplane.tick_ms_p50"] = pct("controlplane.tick", 0.5)
		v["controlplane.tick_ms_p99"] = pct("controlplane.tick", 0.99)
		if o.elapsed > 0 {
			v["controlplane.tick_busy_frac"] = (sum("controlplane.tick") + sum("controlplane.round_tick")) / (1e3 * o.elapsed)
		}
		v["controlplane.drain_ms"] = median(t.durations("controlplane.drain"))
	}
	if present("controlplane.round_tick") {
		r := sorted(t.durations("controlplane.round_tick"))
		v["controlplane.round_ms_p50"] = quantile(r, 0.5)
		v["controlplane.round_ms_max"] = r[len(r)-1]
	}
	if present("ckpt.checkpoint") {
		v["ckpt.checkpoint_ms"] = median(t.durations("ckpt.checkpoint"))
	}
	for k, x := range o.layers {
		v[k] = x
	}
	return v
}
