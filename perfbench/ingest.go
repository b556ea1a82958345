package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sdfm/internal/controlplane"
	"sdfm/internal/controlplane/wire"
	"sdfm/internal/fleet"
	"sdfm/internal/telemetry"
)

// The ingest workload: closed-loop saturation of /v1/report. Each
// campaign boots a fresh controller, ships every agent's backlog as
// 1152-entry batches (8 jobs × 12 h of 5-minute intervals), and drains.
const (
	ingestAgents  = 8
	ingestSetups  = 3
	ingestJobs    = 8
	ingestReports = 10 // batches per agent per campaign
	ingestSpan    = 12 * time.Hour
	ingestTick    = 10 * time.Millisecond
)

func ingestConfig(dir string) controlplane.Config {
	return controlplane.Config{
		RoundEvery:      1 << 20 * time.Hour, // rounds off
		QueueCap:        1 << 14,             // ≥ one agent's campaign: no drops
		BatchSize:       1 << 14,
		CheckpointDir:   dir,
		CheckpointEvery: 48 * time.Hour, // two background snapshots per campaign
	}
}

// agentBatches splits a fleet trace into per-agent report batches: agent
// i is machine i, and batch r holds its entries in the r-th span after
// the trace's first timestamp, minTS.
func agentBatches(trace *telemetry.Trace, span time.Duration) (ids []string, batches [][][]telemetry.Entry, minTS int64) {
	index := map[string]int{}
	for i, e := range trace.Entries {
		if i == 0 || e.TimestampSec < minTS {
			minTS = e.TimestampSec
		}
		id := e.Key.Cluster + "/" + e.Key.Machine
		if _, ok := index[id]; !ok {
			index[id] = len(ids)
			ids = append(ids, id)
		}
	}
	batches = make([][][]telemetry.Entry, len(ids))
	sec := int64(span / time.Second)
	for _, e := range trace.Entries {
		a := index[e.Key.Cluster+"/"+e.Key.Machine]
		r := int((e.TimestampSec - minTS) / sec)
		for len(batches[a]) <= r {
			batches[a] = append(batches[a], nil)
		}
		batches[a][r] = append(batches[a][r], e)
	}
	return ids, batches, minTS
}

func runIngest(e *env) (*outcome, error) {
	o := &outcome{workUnit: "entries acked and ingested", latOp: "report calls"}
	lc := newLoadClient(e.tr)
	defer lc.transport.CloseIdleConnections()
	boot := func(n int, ids []string) (*cpServer, error) {
		dir := filepath.Join(e.dir, fmt.Sprintf("ingest-%d", n))
		srv, err := bootServer(e.tr, ingestConfig(dir), ingestTick)
		if err != nil {
			return nil, err
		}
		if err := register(lc.client(srv.url), ids); err != nil {
			srv.shutdown(nil)
			return nil, err
		}
		return srv, nil
	}

	// Set-up: generate the agents' backlog and boot the controller, a
	// few times over for the median; the last boot serves campaign 0.
	var ids []string
	var batches [][][]telemetry.Entry
	var total int
	var srv *cpServer
	for i := 0; i < ingestSetups; i++ {
		if srv != nil {
			if _, _, err := srv.shutdown(nil); err != nil {
				return nil, err
			}
		}
		begun := time.Now()
		trace, err := fleet.Generate(fleet.Config{
			Clusters: 1, MachinesPerCluster: ingestAgents, JobsPerMachine: ingestJobs,
			Duration: ingestReports * ingestSpan, Seed: e.opts.seed,
		})
		if err != nil {
			return nil, err
		}
		ids, batches, _ = agentBatches(trace, ingestSpan)
		total = trace.Len()
		if srv, err = boot(i, ids); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(begun).Seconds())
	}

	var rt runtimeSample
	var ckptBytes, ckptWrites, ticks, drained float64
	var dropped, rejected uint64
	campaigns := 0
	for ; campaigns == 0 || o.elapsed < e.opts.seconds; campaigns++ {
		if campaigns > 0 {
			var err error
			if srv, err = boot(ingestSetups+campaigns, ids); err != nil {
				return nil, err
			}
		}
		c, err := ingestCampaign(e, o, srv, lc, ids, batches, total, &rt)
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(srv.cfg.CheckpointDir); err != nil {
			return nil, err
		}
		ckptBytes += float64(c.ckptBytes)
		ckptWrites += float64(c.ckptWrites)
		ticks += float64(c.ticks)
		drained += float64(c.drained)
		dropped += c.dropped
		rejected += c.rejected
		o.layer("controlplane.queue_depth_max", max(o.layers["controlplane.queue_depth_max"], float64(c.queueMax)))
	}
	o.addNamed("ingest_entries_per_s", o.work/o.elapsed, "entries/s",
		fmt.Sprintf("%d campaigns of %d entries, first send to Drain", campaigns, total))
	if e.tr == nil {
		return o, nil
	}
	o.layer("ckpt.bytes_per_entry", ckptBytes/o.work)
	o.layer("ckpt.writes", ckptWrites/float64(campaigns))
	o.layer("controlplane.drained_per_tick", drained/ticks)
	o.layer("controlplane.dropped", float64(dropped))
	o.layer("controlplane.rejected", float64(rejected))
	o.layer("process.alloc_bytes_per_entry", float64(rt.allocBytes)/o.work)
	o.layer("gc.cpu_frac", rt.gcFrac())
	return o, wireCosts(o, ids, batches)
}

// campaign is what one ingest campaign left behind.
type campaign struct {
	ingested, dropped, rejected uint64
	ckptBytes                   int64
	ckptWrites, ticks, drained  int
	queueMax                    int
}

// ingestCampaign drives every agent's batches through a booted
// controller from conns closed-loop senders, shuts it down, and checks
// the outcome.
func ingestCampaign(e *env, o *outcome, srv *cpServer, lc *loadClient, ids []string, batches [][][]telemetry.Entry, total int, rt *runtimeSample) (campaign, error) {
	var c campaign
	type sender struct {
		lat         []float64
		acked, errs int
		firstErr    error
	}
	senders := make([]sender, conns)
	rt0 := readRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for g := range senders {
		wg.Add(1)
		go func(s *sender, g int) {
			defer wg.Done()
			cl := lc.client(srv.url)
			for r := 0; r < ingestReports; r++ {
				for a := g; a < len(ids); a += conns {
					if r >= len(batches[a]) {
						continue
					}
					id := e.tr.newReq()
					ctx := context.WithValue(context.Background(), reqIDKey{}, id)
					t := time.Now()
					sp := e.tr.start("loadgen.report", 0, id, 1+g)
					resp, err := cl.Report(ctx, controlplane.ReportRequest{AgentID: ids[a], Entries: batches[a][r]})
					sp.end()
					s.lat = append(s.lat, ms(time.Since(t)))
					if err != nil {
						s.errs++
						if s.firstErr == nil {
							s.firstErr = err
						}
						continue
					}
					s.acked += resp.Accepted
				}
			}
		}(&senders[g], g)
	}
	wg.Wait()
	srv.stopTicks()
	sp := e.tr.start("controlplane.drain", 0, 0, 91)
	srv.c.Drain()
	sp.end()
	elapsed := time.Since(start).Seconds()
	d := readRuntime().sub(rt0)
	rt.allocBytes += d.allocBytes
	rt.gcCPU += d.gcCPU
	rt.totalCPU += d.totalCPU

	// The tick loop is stopped and the queues are drained, so shutdown's
	// own Drain finds nothing; it then takes the final checkpoint.
	_, path, err := srv.shutdown(e.tr)
	if err != nil {
		return c, err
	}
	acked := 0
	for _, s := range senders {
		o.latencies = append(o.latencies, s.lat...)
		o.attempted += int64(len(s.lat))
		acked += s.acked
		if s.errs > 0 {
			o.failN(int64(s.errs), "%d reports failed, first: %v", s.errs, s.firstErr)
		}
	}
	st := srv.c.Status()
	c.ingested = st.Ingest.Ingested
	c.dropped = st.Ingest.DroppedBackpressure
	c.rejected = st.Ingest.RejectedCorrupt + st.Ingest.RejectedInvalid
	c.ticks, c.drained, c.queueMax = srv.ticks, srv.drained, srv.queueMax
	c.ckptWrites = srv.checkpointed + 1
	o.work += float64(c.ingested)
	o.elapsed += elapsed

	o.attempted += 2
	if err := checkAcked(total, acked, st.Ingest); err != nil {
		o.fail("%v", err)
	}
	if fi, err := os.Stat(path); err == nil {
		c.ckptBytes = fi.Size()
	}
	if err := checkRestore(srv.cfg, c.ingested); err != nil {
		o.fail("%v", err)
	}
	return c, nil
}

// checkAcked is the ingest output check shared by ingest and online:
// every entry sent was acked and ingested, and none was dropped or
// rejected.
func checkAcked(sent, acked int, st controlplane.IngestStats) error {
	rejected := st.RejectedCorrupt + st.RejectedInvalid
	if acked != sent || uint64(acked) != st.Ingested || st.DroppedBackpressure != 0 || rejected != 0 {
		return fmt.Errorf("sent %d entries: acked %d, ingested %d, dropped %d, rejected %d",
			sent, acked, st.Ingested, st.DroppedBackpressure, rejected)
	}
	return nil
}

// checkRestore boots a controller from cfg's checkpoint directory, as
// sdfmd does after a restart, and checks it recovers the ingest total.
func checkRestore(cfg controlplane.Config, ingested uint64) error {
	_, rep, err := controlplane.Restore(cfg)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if !rep.Restored || rep.Ingested != ingested {
		return fmt.Errorf("restore from %s: restored=%v, ingested %d, want %d",
			rep.File, rep.Restored, rep.Ingested, ingested)
	}
	return nil
}

// wireCosts measures the binary codec over the run's own report batches:
// encode and decode time, frame size, and decode allocation per entry.
func wireCosts(o *outcome, ids []string, batches [][][]telemetry.Entry) error {
	var frames [][]byte
	var entries, size int
	for a, id := range ids {
		for _, b := range batches[a] {
			f, err := wire.AppendReportBatch(nil, id, b)
			if err != nil {
				return err
			}
			frames = append(frames, f)
			entries += len(b)
			size += len(f)
		}
	}
	// Encode again into one reused buffer, as the client's pooled
	// buffers do.
	var buf []byte
	t := time.Now()
	for a, id := range ids {
		for _, b := range batches[a] {
			buf, _ = wire.AppendReportBatch(buf[:0], id, b)
		}
	}
	encode := time.Since(t)
	rt0 := readRuntime()
	t = time.Now()
	for _, f := range frames {
		if _, _, err := wire.DecodeReportBatch(f); err != nil {
			return err
		}
	}
	decode := time.Since(t)
	alloc := readRuntime().sub(rt0).allocBytes
	n := float64(entries)
	o.layer("wire.encode_ns_per_entry", float64(encode.Nanoseconds())/n)
	o.layer("wire.decode_ns_per_entry", float64(decode.Nanoseconds())/n)
	o.layer("wire.bytes_per_entry", float64(size)/n)
	o.layer("wire.decode_alloc_bytes_per_entry", float64(alloc)/n)
	return nil
}
