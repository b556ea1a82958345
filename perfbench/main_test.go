package main

// Self-test of the benchmark at toy size: every output check passes on
// good output and fires on damaged output, and a run prints the result
// line the benchmark definition asks for.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/fleet"
	"sdfm/internal/tuner"
)

var toySim = simShape{machines: 1, jobs: 2, warm: 30 * time.Minute}

func TestSimFingerprintAndReplay(t *testing.T) {
	const pinned uint64 = 0x7e83187fbf94f7aa // toySim, seed 1
	timed, err := buildSim(1, toySim)
	if err != nil {
		t.Fatal(err)
	}
	if got := timed.Fingerprint(); got != pinned {
		t.Errorf("toy cluster fingerprint %016x, pinned %016x", got, pinned)
	}
	other, err := buildSim(2, toySim)
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint() == timed.Fingerprint() {
		t.Error("seeds 1 and 2 warm to the same fingerprint")
	}

	// Traced and untraced steps advance the same simulation, and the
	// replay check accepts a faithful reference.
	if err := stepCluster(nil, timed); err != nil {
		t.Fatal(err)
	}
	if err := stepCluster(newTracer(), timed); err != nil {
		t.Fatal(err)
	}
	ref, err := buildSim(1, toySim)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(timed, ref); err != nil {
		t.Errorf("faithful replay rejected: %v", err)
	}
	if err := checkReplay(timed, other); err == nil {
		t.Error("replay from another seed accepted")
	}
	if vs := timed.Audit(true); len(vs) > 0 {
		t.Errorf("deep audit: %v", vs)
	}
}

func TestTunePassMatchesOracle(t *testing.T) {
	cfg := tuneFleet
	cfg.Clusters, cfg.Duration, cfg.Seed = 1, 12*time.Hour, 1
	trace, err := fleet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tuneOracle(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tune.sdfmtrace")
	for _, tr := range []*tracer{nil, newTracer()} {
		got, _, err := tunePass(tr, trace, path, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("pass deployed %+v, oracle %+v", got, want)
		}
	}

	// A flipped byte in the store file must be reported.
	flip := func(p string) error {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		b[len(b)/2] ^= 0x40
		return os.WriteFile(p, b, 0o644)
	}
	if _, _, err := tunePass(nil, trace, path, 1, flip); err == nil {
		t.Error("pass over a damaged store file reported no error")
	}
}

func TestIngestCampaignChecks(t *testing.T) {
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 1, MachinesPerCluster: 2, JobsPerMachine: 2, Duration: 24 * time.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, batches, _ := agentBatches(trace, ingestSpan)
	cfg := ingestConfig(t.TempDir())
	srv, err := bootServer(nil, cfg, ingestTick)
	if err != nil {
		t.Fatal(err)
	}
	lc := newLoadClient(nil)
	defer lc.transport.CloseIdleConnections()
	if err := register(lc.client(srv.url), ids); err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	c, err := ingestCampaign(&env{}, o, srv, lc, ids, batches, trace.Len(), &runtimeSample{})
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || int(c.ingested) != trace.Len() {
		t.Fatalf("toy campaign: ingested %d of %d, failed checks %v", c.ingested, trace.Len(), o.problems)
	}

	n := trace.Len()
	good := controlplane.IngestStats{Ingested: uint64(n)}
	if err := checkAcked(n, n, good); err != nil {
		t.Errorf("clean campaign rejected: %v", err)
	}
	for name, st := range map[string]controlplane.IngestStats{
		"dropped":  {Ingested: uint64(n), DroppedBackpressure: 1},
		"rejected": {Ingested: uint64(n), RejectedCorrupt: 1},
		"lost":     {Ingested: uint64(n - 1)},
	} {
		if checkAcked(n, n, st) == nil {
			t.Errorf("%s entries not reported", name)
		}
	}
	if checkAcked(n, n-1, good) == nil {
		t.Error("unacked entries not reported")
	}
	if err := checkRestore(cfg, c.ingested); err != nil {
		t.Errorf("restore from the final checkpoint: %v", err)
	}
	if checkRestore(cfg, c.ingested+1) == nil {
		t.Error("restore recovering a different ingest total accepted")
	}
}

func TestRoundChecks(t *testing.T) {
	const window = int64(onlineRoundEvery / time.Second)
	round := controlplane.RoundReport{Round: 1, WindowEndSec: window, Entries: 10}
	status := func(rounds int, leftover int64) controlplane.Status {
		return controlplane.Status{
			Rounds: rounds, WindowStartSec: window + 300, WindowEndSec: window + 300 + leftover,
			WindowEntries: 5, Ingest: controlplane.IngestStats{Ingested: 15},
		}
	}
	check := func(rr controlplane.RoundReport, st controlplane.Status) error {
		return checkRounds([]roundSeen{{rr: rr}}, st)
	}
	if err := check(round, status(1, 600)); err != nil {
		t.Errorf("clean round rejected: %v", err)
	}
	rollback := round
	rollback.RolledBackAt = "canary"
	rollback.Err = "tuner: stage \"canary\": " + tuner.ErrSLOViolated.Error()
	if err := check(rollback, status(1, 600)); err != nil {
		t.Errorf("rollback on an SLO breach rejected: %v", err)
	}

	failed := round
	failed.Err = "autotune failed"
	short := round
	short.WindowEndSec = window - 300
	for name, tc := range map[string]struct {
		rr controlplane.RoundReport
		st controlplane.Status
	}{
		"round error":     {failed, status(1, 600)},
		"short window":    {short, status(1, 600)},
		"missed round":    {round, status(1, window)},
		"uncounted round": {round, status(2, 600)},
		"entries lost":    {round, func() controlplane.Status { st := status(1, 600); st.Ingest.Ingested++; return st }()},
	} {
		if check(tc.rr, tc.st) == nil {
			t.Errorf("%s not reported", name)
		}
	}
}

func TestAgentBatches(t *testing.T) {
	trace, err := fleet.Generate(fleet.Config{
		Clusters: 1, MachinesPerCluster: 3, JobsPerMachine: 2, Duration: 2 * time.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, batches, _ := agentBatches(trace, time.Hour)
	if len(ids) != 3 {
		t.Fatalf("%d agents, want 3", len(ids))
	}
	total := 0
	for a, id := range ids {
		for _, b := range batches[a] {
			for _, e := range b {
				if e.Key.Cluster+"/"+e.Key.Machine != id {
					t.Fatalf("agent %s got %v's entry", id, e.Key)
				}
			}
			total += len(b)
		}
	}
	if total != trace.Len() {
		t.Errorf("batches hold %d entries, trace %d", total, trace.Len())
	}
}

// TestResultLine runs the tune workload briefly through the command's
// entry point and checks the last output line against the benchmark
// definition.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tune workload's full set-up")
	}
	var out bytes.Buffer
	o := options{workload: "tune", seed: 3, seconds: 0.2, spec: "../BENCHMARK.json", outDir: t.TempDir()}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	sp, err := loadSpec(o.spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(sp.EndToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, m := range sp.EndToEnd {
		if v := res.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("%s = %+v", m.Name, v)
		}
	}
}
