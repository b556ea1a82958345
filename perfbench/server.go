package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sdfm/internal/controlplane"
)

// conns is the most connections, and sender goroutines, the load
// generators use: the benchmark host has two cores.
const conns = 2

// cpServer is one booted control plane: controller, loopback listener,
// HTTP server and the sdfmd-style tick loop. The benchmark owns every
// goroutine it starts; shutdown joins them all.
type cpServer struct {
	c    *controlplane.Controller
	cfg  controlplane.Config
	url  string
	http *http.Server

	serveDone chan error
	tickStop  chan struct{}
	tickDone  chan struct{}

	// Filled by the tick loop; read after tickDone closes.
	ticks        int
	drained      int
	checkpointed int
	queueMax     int
}

// reqIDHeader carries the benchmark's request ID from client to server so
// the client and handler spans of one request share it.
const reqIDHeader = "X-Perfbench-Req"

type reqIDKey struct{}

// bootServer starts a controller behind a real loopback listener. On a
// traced pass the handler is wrapped in timing middleware.
func bootServer(tr *tracer, cfg controlplane.Config, tick time.Duration) (*cpServer, error) {
	c, err := controlplane.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := controlplane.NewServer(c, nil).Handler()
	if tr != nil {
		h = timedHandler(tr, h)
	}
	s := &cpServer{
		c: c, cfg: cfg, url: "http://" + ln.Addr().String(),
		http:      &http.Server{Handler: h},
		serveDone: make(chan error, 1),
		tickStop:  make(chan struct{}),
		tickDone:  make(chan struct{}),
	}
	go func() { s.serveDone <- s.http.Serve(ln) }()
	go s.tickLoop(tr, tick)
	return s, nil
}

// tickLoop drains agent queues on a wall-clock ticker, as sdfmd does.
// Rounds run inside Tick when the telemetry window is due.
func (s *cpServer) tickLoop(tr *tracer, period time.Duration) {
	defer close(s.tickDone)
	t := time.NewTicker(period)
	defer t.Stop()
	var lastSample time.Time
	for {
		select {
		case <-s.tickStop:
			return
		case <-t.C:
		}
		sp := tr.start("controlplane.tick", 0, 0, 90)
		rep := s.c.Tick()
		if rep.RoundRan {
			sp.endAs("controlplane.round_tick")
		} else {
			sp.end()
		}
		if tr != nil && time.Since(lastSample) >= 100*time.Millisecond {
			lastSample = time.Now()
			depth := 0
			for _, a := range s.c.Status().Agents {
				depth += a.QueueDepth
			}
			s.queueMax = max(s.queueMax, depth)
		}
		s.ticks++
		s.drained += rep.Drained
		if rep.Checkpointed {
			s.checkpointed++
		}
	}
}

// stopTicks stops the tick loop and waits for it to exit.
func (s *cpServer) stopTicks() {
	select {
	case <-s.tickDone:
		return
	default:
	}
	close(s.tickStop)
	<-s.tickDone
}

// shutdown ends the server's lifecycle the way sdfmd does: stop taking
// connections, stop ticking, Drain the queues, then the final
// Checkpoint — the only call that joins the controller's background
// checkpoint writer. It returns the drain report and checkpoint path.
func (s *cpServer) shutdown(tr *tracer) (controlplane.DrainReport, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serveErr := <-s.serveDone; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	s.stopTicks()
	sp := tr.start("controlplane.drain", 0, 0, 91)
	rep := s.c.Drain()
	sp.end()
	if err != nil {
		return rep, "", fmt.Errorf("http shutdown: %w", err)
	}
	if s.cfg.CheckpointDir == "" {
		return rep, "", nil
	}
	sp = tr.start("ckpt.checkpoint", 0, 0, 91)
	path, err := s.c.Checkpoint()
	sp.end()
	return rep, path, err
}

// timedHandler records one span per /v1/report and /v1/poll request.
func timedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		switch r.URL.Path {
		case "/v1/report":
			name = "controlplane.report_handler"
		case "/v1/poll":
			name = "controlplane.poll_handler"
		default:
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		sp := tr.start(name, 0, req, 100)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// reqIDTransport copies the request ID from the context into a header.
type reqIDTransport struct{ next http.RoundTripper }

func (t reqIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int64); ok && id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	return t.next.RoundTrip(r)
}

// loadClient is the load generators' HTTP side: one transport capped at
// conns connections, shared by every agent ID the generator speaks for.
type loadClient struct {
	transport *http.Transport
	http      *http.Client
}

func newLoadClient(tr *tracer) *loadClient {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = t
	if tr != nil {
		rt = reqIDTransport{t}
	}
	return &loadClient{transport: t, http: &http.Client{Transport: rt, Timeout: 30 * time.Second}}
}

// client returns a control-plane client for base that sends binary
// report frames over the shared transport.
func (l *loadClient) client(base string) *controlplane.Client {
	cl := controlplane.NewClient(base)
	cl.HTTP = l.http
	cl.Encoding = controlplane.EncodingBinary
	return cl
}

// register registers agent IDs over HTTP, conns at a time.
func register(cl *controlplane.Client, ids []string) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ids); i += conns {
				if _, err := cl.Register(context.Background(), controlplane.RegisterRequest{AgentID: ids[i]}); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}
