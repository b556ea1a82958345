package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
	"sdfm/internal/tuner"
)

// The online workload: an open-loop fleet. Every agent reports one
// 5-minute interval of its jobs' entries on a fixed schedule and polls
// every few intervals; rounds fire every onlineRoundEvery of telemetry
// time while ingest continues. The agent count and the offered rate come
// from the command line (BENCHMARK.json fixes them).
const (
	onlineJobs      = 2 // jobs per agent: entries per report
	onlinePollEvery = 4 // intervals between one agent's polls
	// onlineRoundEvery is sdfmd's default window. A much shorter one
	// leaves the canary ring's slice of the window shorter than the
	// S=20 min warm-up, so the ring has nothing to judge.
	onlineRoundEvery = 6 * time.Hour
	onlineInterval   = 5 * time.Minute
	onlineTick       = 10 * time.Millisecond
	onlineSetups     = 3
)

func onlineConfig(dir string, onRound func(controlplane.RoundReport)) controlplane.Config {
	return controlplane.Config{
		RoundEvery:    onlineRoundEvery,
		Stages:        tuneStages,
		CheckpointDir: dir,
		OnRound:       onRound,
	}
}

// roundSeen is one OnRound callback: when the decision landed.
type roundSeen struct {
	at time.Time
	rr controlplane.RoundReport
}

// request is one scheduled call of the open loop.
type request struct {
	due      time.Time
	agent    int
	interval int
	poll     bool
}

func runOnline(e *env) (*outcome, error) {
	o := &outcome{workUnit: "entries acked and ingested", latOp: "reports, timed from when each was due"}
	agents, rate := e.opts.onlineAgents, e.opts.onlineRate
	if agents < conns || rate <= 0 {
		return nil, fmt.Errorf("online: need -online-agents of at least %d and a positive -online-rate", conns)
	}
	perInterval := float64(agents * onlineJobs)
	period := time.Duration(perInterval / rate * float64(time.Second)) // wall time per interval
	intervals := int(e.opts.seconds * rate / perInterval)
	if intervals < 1 {
		return nil, fmt.Errorf("online: %g s at %g entries/s is less than one interval", e.opts.seconds, rate)
	}
	var mu sync.Mutex
	var rounds []roundSeen
	onRound := func(rr controlplane.RoundReport) {
		at := time.Now()
		mu.Lock()
		rounds = append(rounds, roundSeen{at, rr})
		mu.Unlock()
	}
	// Set-up: generate the fleet's telemetry and boot the controller, a
	// few times over for the median; only the last boot serves.
	var trace *telemetry.Trace
	var ids []string
	var reports [][][]telemetry.Entry
	var minTS int64
	var srv *cpServer
	lc := newLoadClient(e.tr)
	defer lc.transport.CloseIdleConnections()
	for i := 0; i < onlineSetups; i++ {
		if srv != nil {
			if _, _, err := srv.shutdown(nil); err != nil {
				return nil, err
			}
		}
		begun := time.Now()
		var err error
		trace, err = fleet.Generate(fleet.Config{
			Clusters: 1, MachinesPerCluster: agents, JobsPerMachine: onlineJobs,
			Duration: time.Duration(intervals) * onlineInterval, Seed: e.opts.seed,
		})
		if err != nil {
			return nil, err
		}
		ids, reports, minTS = agentBatches(trace, onlineInterval)
		if len(ids) != agents {
			return nil, fmt.Errorf("online: trace has %d machines, want %d", len(ids), agents)
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("online-%d", i))
		if srv, err = bootServer(e.tr, onlineConfig(dir, onRound), onlineTick); err != nil {
			return nil, err
		}
		if err := register(lc.client(srv.url), ids); err != nil {
			srv.shutdown(nil)
			return nil, err
		}
		o.setup = append(o.setup, time.Since(begun).Seconds())
	}

	// The schedule: agent a's report for interval i is due a/agents of
	// the way through the interval's wall-clock slot; its poll, when it
	// has one, half a slot later. Agents are dealt to conns senders.
	start := time.Now().Add(20 * time.Millisecond)
	slot := period / time.Duration(agents)
	due := func(i, a int) time.Time { return start.Add(time.Duration(i)*period + time.Duration(a)*slot) }
	type sender struct {
		report, poll, late []float64
		acked              int
		errs               int
		firstErr           error
	}
	senders := make([]sender, conns)
	rt0 := readRuntime()
	var wg sync.WaitGroup
	for g := range senders {
		wg.Add(1)
		go func(s *sender, g int) {
			defer wg.Done()
			cl := lc.client(srv.url)
			p, err := newPacer()
			if err != nil {
				s.errs++
				s.firstErr = err
				return
			}
			defer p.close()
			var plan []request
			for i := 0; i < intervals; i++ {
				for a := g; a < agents; a += conns {
					plan = append(plan, request{due: due(i, a), agent: a, interval: i})
					if (i+a)%onlinePollEvery == 0 {
						plan = append(plan, request{due: due(i, a).Add(slot / 2), agent: a, interval: i, poll: true})
					}
				}
			}
			for _, r := range plan {
				if err := p.sleepUntil(r.due); err != nil {
					s.errs++
					s.firstErr = err
					return
				}
				s.late = append(s.late, ms(time.Since(r.due)))
				id := e.tr.newReq()
				ctx := context.WithValue(context.Background(), reqIDKey{}, id)
				var err error
				if r.poll {
					sp := e.tr.start("loadgen.poll", 0, id, 1+g)
					var resp controlplane.PollResponse
					resp, err = cl.Poll(ctx, controlplane.PollRequest{AgentID: ids[r.agent]})
					sp.end()
					s.poll = append(s.poll, ms(time.Since(r.due)))
					if err == nil {
						err = resp.Params.Validate()
					}
				} else {
					var entries []telemetry.Entry
					if r.interval < len(reports[r.agent]) {
						entries = reports[r.agent][r.interval]
					}
					sp := e.tr.start("loadgen.report", 0, id, 1+g)
					var resp controlplane.ReportResponse
					resp, err = cl.Report(ctx, controlplane.ReportRequest{AgentID: ids[r.agent], Entries: entries})
					sp.end()
					s.report = append(s.report, ms(time.Since(r.due)))
					s.acked += resp.Accepted
				}
				if err != nil {
					s.errs++
					if s.firstErr == nil {
						s.firstErr = err
					}
				}
			}
		}(&senders[g], g)
	}
	wg.Wait()
	srv.stopTicks()
	sp := e.tr.start("controlplane.drain", 0, 0, 91)
	srv.c.Drain()
	sp.end()
	o.elapsed = time.Since(start).Seconds()
	rt := readRuntime().sub(rt0)
	if _, _, err := srv.shutdown(e.tr); err != nil {
		return nil, err
	}

	var polls, late []float64
	acked := 0
	for _, s := range senders {
		o.latencies = append(o.latencies, s.report...)
		polls = append(polls, s.poll...)
		late = append(late, s.late...)
		acked += s.acked
		o.attempted += int64(len(s.report) + len(s.poll))
		if s.errs > 0 {
			o.failN(int64(s.errs), "%d requests failed, first: %v", s.errs, s.firstErr)
		}
	}
	st := srv.c.Status()
	o.work = float64(st.Ingest.Ingested)

	// Output checks: every acked entry ingested, no drops or rejects, and
	// the rounds the telemetry clock called for ran cleanly — each round
	// judged a window of at least onlineRoundEvery, the window left over
	// is shorter, and round windows plus leftover account for every
	// ingested entry.
	o.attempted += 2
	if err := checkAcked(trace.Len(), acked, st.Ingest); err != nil {
		o.fail("%v", err)
	}
	mu.Lock()
	seen := append([]roundSeen(nil), rounds...)
	mu.Unlock()
	if err := checkRounds(seen, st); err != nil {
		o.fail("rounds: %v", err)
	}

	// decision_s: from when the report that closed a round's window was
	// due to that round's OnRound.
	roundSec := int64(onlineRoundEvery / time.Second)
	step := int64(onlineInterval / time.Second)
	var decisions []float64
	for _, r := range seen {
		closing := int((r.rr.WindowStartSec + roundSec - minTS + step - 1) / step)
		decisions = append(decisions, r.at.Sub(due(closing, 0)).Seconds())
	}
	rs, ps := sorted(o.latencies), sorted(polls)
	o.addNamed("report_p50_us", 1e3*quantile(rs, 0.5), "us", fmt.Sprintf("%d reports", len(rs)))
	o.addNamed("report_p99_us", 1e3*quantile(rs, 0.99), "us", fmt.Sprintf("%d beyond", beyond(len(rs), 0.99)))
	o.addNamed("poll_p99_us", 1e3*quantile(ps, 0.99), "us", fmt.Sprintf("%d polls, %d beyond", len(ps), beyond(len(ps), 0.99)))
	o.addNamed("decision_s", median(decisions), "s", fmt.Sprintf("median of %d rounds", len(decisions)))
	o.addNamed("late_ms_p99", quantile(sorted(late), 0.99), "ms",
		fmt.Sprintf("%d agents, %g entries/s offered over %d connections", agents, rate, conns))
	if e.tr != nil {
		var entries, evals float64
		for _, r := range seen {
			entries += float64(r.rr.Entries)
			evals += float64(r.rr.TunerEvals)
		}
		n := float64(len(seen))
		o.layer("online.decision_s", median(decisions))
		o.layer("online.poll_p99_us", 1e3*quantile(ps, 0.99))
		o.layer("loadgen.late_ms_p99", quantile(sorted(late), 0.99))
		o.layer("controlplane.round_entries", entries/n)
		o.layer("tuner.evals_per_round", evals/n)
		o.layer("controlplane.queue_depth_max", float64(srv.queueMax))
		o.layer("controlplane.drained_per_tick", float64(srv.drained)/float64(srv.ticks))
		o.layer("controlplane.dropped", float64(st.Ingest.DroppedBackpressure))
		o.layer("controlplane.rejected", float64(st.Ingest.RejectedCorrupt+st.Ingest.RejectedInvalid))
		o.layer("process.alloc_bytes_per_entry", float64(rt.allocBytes)/o.work)
		o.layer("gc.cpu_frac", rt.gcFrac())
	}
	return o, nil
}

// checkRounds verifies the rounds a run saw against the controller's
// final state.
func checkRounds(seen []roundSeen, st controlplane.Status) error {
	roundSec := int64(onlineRoundEvery / time.Second)
	if len(seen) == 0 || len(seen) != st.Rounds {
		return fmt.Errorf("OnRound fired %d times, controller reports %d rounds", len(seen), st.Rounds)
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i].rr.Round < seen[j].rr.Round })
	entries := st.WindowEntries
	for _, r := range seen {
		// A rollback on an SLO breach is a decision and carries the breach
		// in Err; any other Err means the round could not decide.
		if r.rr.Err != "" && (r.rr.RolledBackAt == "" || !strings.Contains(r.rr.Err, tuner.ErrSLOViolated.Error())) {
			return fmt.Errorf("round %d: %s", r.rr.Round, r.rr.Err)
		}
		if span := r.rr.WindowEndSec - r.rr.WindowStartSec; span < roundSec {
			return fmt.Errorf("round %d judged a %d s window, want at least %d s", r.rr.Round, span, roundSec)
		}
		entries += r.rr.Entries
	}
	if st.WindowStartSec >= 0 && st.WindowEndSec-st.WindowStartSec >= roundSec {
		return fmt.Errorf("a %d s window is left without a round", st.WindowEndSec-st.WindowStartSec)
	}
	if uint64(entries) != st.Ingest.Ingested {
		return fmt.Errorf("round windows and leftover hold %d entries, %d ingested", entries, st.Ingest.Ingested)
	}
	return nil
}
