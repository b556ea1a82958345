package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sdfm"
	"sdfm/internal/core"
	"sdfm/internal/fleet"
	"sdfm/internal/model"
	"sdfm/internal/telemetry"
	"sdfm/internal/tracestore"
	"sdfm/internal/tuner"
)

// The tune workload: the offline §5.3 pipeline, from a fleet trace on
// disk to deployed (K, S). A run tunes tuneFleets fleets of 2 clusters ×
// 8 machines × 5 jobs over one day, all generated from the run's seed,
// in turn. Whether a fleet's staged rollout accepts or rolls back early
// changes a pass's length by a third; cycling through several fleets
// keeps that from deciding a whole run.
const (
	tuneFleets = 8
	tuneSetups = 3
)

var tuneFleet = fleet.Config{
	Clusters: 2, MachinesPerCluster: 8, JobsPerMachine: 5,
	Duration: 24 * time.Hour,
}

// tuneStages are the deployment rings, scaled to fleets of a few hundred
// jobs (tune's 80, online's 256): a 1% canary would hold one or two jobs,
// too few to judge a slice of the window by. The online controller uses
// them too.
var tuneStages = []tuner.RolloutStage{
	{Name: "canary", Fraction: 0.05},
	{Name: "early", Fraction: 0.20},
	{Name: "half", Fraction: 0.50},
	{Name: "fleet", Fraction: 1.00},
}

// tuneDecision is what one pass deploys.
type tuneDecision struct {
	candidate core.Params // the GP-bandit's best
	chosen    core.Params // what the staged rollout left deployed
	accepted  bool
}

func tuneConfig(seed int64) tuner.Config {
	return tuner.Config{SLO: core.DefaultSLO, Seed: seed, InitSamples: 5, Iterations: 15}
}

func tuneModel() model.Config { return model.Config{SLO: core.DefaultSLO} }

// tuneOracle computes the expected decision in memory: CompileTrace →
// Autotune → StagedRollout over the same trace, with no store file.
func tuneOracle(trace *telemetry.Trace, seed int64) (tuneDecision, error) {
	ct := model.Compile(trace)
	mcfg := tuneModel()
	res, err := tuner.Autotune(func(p core.Params) (model.FleetResult, error) {
		c := mcfg
		c.Params = p
		return ct.Run(c)
	}, tuneConfig(seed))
	if err != nil {
		return tuneDecision{}, err
	}
	dep, err := tuner.StagedRollout(res.Best.Params, core.DefaultParams,
		tuner.TraceStageObjective(trace, mcfg, len(tuneStages)), tuneStages, core.DefaultSLO)
	if err != nil {
		return tuneDecision{}, err
	}
	return tuneDecision{res.Best.Params, dep.Chosen, dep.Accepted}, nil
}

// tuneInput is one fleet of a tune run and its expected decision.
type tuneInput struct {
	seed  int64
	trace *telemetry.Trace
	want  tuneDecision
}

func tuneInputs(seed int64) ([]tuneInput, error) {
	in := make([]tuneInput, tuneFleets)
	for i := range in {
		cfg := tuneFleet
		cfg.Seed = seed*tuneFleets + int64(i)
		tr, err := fleet.Generate(cfg)
		if err != nil {
			return nil, err
		}
		d, err := tuneOracle(tr, cfg.Seed)
		if err != nil {
			return nil, err
		}
		in[i] = tuneInput{cfg.Seed, tr, d}
	}
	return in, nil
}

func runTune(e *env) (*outcome, error) {
	o := &outcome{workUnit: "trace entries through trace→deployed params", latOp: "passes"}
	var inputs []tuneInput
	for i := 0; i < tuneSetups; i++ {
		t := time.Now()
		in, err := tuneInputs(e.opts.seed)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t).Seconds())
		o.attempted++
		for j := range in {
			if i > 0 && in[j].want != inputs[j].want {
				o.fail("oracle decisions for fleet seed %d differ: %+v vs %+v", in[j].seed, inputs[j].want, in[j].want)
				break
			}
		}
		inputs = in
	}

	path := filepath.Join(e.dir, "tune.sdfmtrace")
	rt0 := readRuntime()
	var compileAlloc []float64
	var replays, accepted int
	start := time.Now()
	stop := e.deadline()
	for n := 0; time.Now().Before(stop); n++ {
		in := inputs[n%len(inputs)]
		o.attempted++
		t := time.Now()
		got, st, err := tunePass(e.tr, in.trace, path, in.seed, nil)
		o.latencies = append(o.latencies, ms(time.Since(t)))
		if err != nil {
			o.fail("pass %d: %v", n, err)
			continue
		}
		o.work += float64(in.trace.Len())
		if got != in.want {
			o.fail("pass %d (fleet seed %d) deployed %+v, oracle %+v", n, in.seed, got, in.want)
		}
		if got.accepted {
			accepted++
		}
		compileAlloc = append(compileAlloc, st.compileAllocMB)
		replays += st.replays
		o.layer("tracestore.bytes_per_entry", float64(st.fileBytes)/float64(in.trace.Len()))
	}
	o.elapsed = time.Since(start).Seconds()
	rt := readRuntime().sub(rt0)

	o.addNamed("tune_s", median(o.latencies)/1e3, "s",
		fmt.Sprintf("median of %d passes over %d fleets of %d entries; %d passes accepted",
			len(o.latencies), len(inputs), inputs[0].trace.Len(), accepted))
	if e.tr != nil && len(o.latencies) > 0 {
		o.layer("model.compile_alloc_mb", median(compileAlloc))
		o.layer("model.replays", float64(replays)/float64(len(o.latencies)))
		o.layer("gc.cpu_frac", rt.gcFrac())
	}
	return o, nil
}

// passStats are the per-pass numbers that do not come from spans.
type passStats struct {
	fileBytes      int64
	compileAllocMB float64
	replays        int
}

// tunePass runs trace → store file → open → compile → autotune → staged
// rollout once and returns the deployed decision. tamper, when set, may
// damage the file between write and open (the self-test uses it); the
// pass must then report an error.
func tunePass(tr *tracer, trace *telemetry.Trace, path string, seed int64, tamper func(string) error) (tuneDecision, passStats, error) {
	var st passStats
	pass := tr.start("tune.pass", 0, 0, 0)
	defer pass.end()
	defer os.Remove(path)

	sp := tr.start("tracestore.write", pass.id(), 0, 0)
	if err := writeStore(path, trace); err != nil {
		return tuneDecision{}, st, err
	}
	sp.end()
	if tamper != nil {
		if err := tamper(path); err != nil {
			return tuneDecision{}, st, err
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return tuneDecision{}, st, err
	}
	st.fileBytes = fi.Size()

	h, err := tracestore.Open(path)
	if err != nil {
		return tuneDecision{}, st, err
	}
	defer h.Close()
	if tr != nil {
		sp := tr.start("tracestore.scan", pass.id(), 0, 0)
		err := h.Scan(func(telemetry.Entry) error { return nil })
		sp.end()
		if err != nil {
			return tuneDecision{}, st, err
		}
	}
	sp = tr.start("model.compile", pass.id(), 0, 0)
	var rt0 runtimeSample
	if tr != nil {
		rt0 = readRuntime()
	}
	ct, err := h.Compile()
	if tr != nil {
		st.compileAllocMB = float64(readRuntime().sub(rt0).allocBytes) / (1 << 20)
	}
	sp.end()
	if err != nil {
		return tuneDecision{}, st, err
	}
	if sk := h.Skipped(); sk.Chunks > 0 || sk.Entries > 0 || h.Entries() != trace.Len() {
		return tuneDecision{}, st, fmt.Errorf("store file indexes %d of %d entries; %d chunks (%d entries) skipped as damaged",
			h.Entries(), trace.Len(), sk.Chunks, sk.Entries)
	}

	mcfg := tuneModel()
	auto := tr.start("gp.autotune", pass.id(), 0, 0)
	res, err := tuner.Autotune(func(p core.Params) (model.FleetResult, error) {
		c := mcfg
		c.Params = p
		sp := tr.start("model.replay", auto.id(), 0, 0)
		defer sp.end()
		st.replays++
		return ct.Run(c)
	}, tuneConfig(seed))
	auto.end()
	if err != nil {
		return tuneDecision{}, st, err
	}

	sp = tr.start("tuner.rollout", pass.id(), 0, 0)
	dep, err := tuner.StagedRollout(res.Best.Params, core.DefaultParams,
		sdfm.HandleStageObjective(h, mcfg, len(tuneStages)), tuneStages, core.DefaultSLO)
	sp.end()
	if err != nil {
		return tuneDecision{}, st, err
	}
	return tuneDecision{res.Best.Params, dep.Chosen, dep.Accepted}, st, nil
}

func writeStore(path string, trace *telemetry.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := tracestore.WriteTrace(w, trace); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
