package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sdfm/internal/mem"
	"sdfm/internal/simtime"
)

// refEvent and refHeap are the reference event queue: a hand copy of
// container/heap's sift algorithms on an array of (at, page) structs.
// eventQueue must reproduce its arrangement after every operation, ties
// included, because the pop order of equal timestamps decides the order
// of the RNG draws that follow.
type refEvent struct {
	at   time.Duration
	page mem.PageID
}

type refHeap []refEvent

func (h *refHeap) init() {
	n := len(*h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *refHeap) push(e refEvent) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *refHeap) pop() refEvent {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	h.down(0, n)
	e := s[n]
	*h = s[:n]
	return e
}

func (h *refHeap) up(j int) {
	s := *h
	for {
		i := (j - 1) / 2 // parent
		if i == j || s[j].at >= s[i].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *refHeap) down(i0, n int) {
	s := *h
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].at < s[j1].at {
			j = j2 // right child
		}
		if s[j].at >= s[i].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

// sameArrangement reports the first slot where q and h differ.
func sameArrangement(q *eventQueue, h refHeap) error {
	if len(q.at) != len(h) || len(q.page) != len(h) {
		return fmt.Errorf("len %d/%d, reference %d", len(q.at), len(q.page), len(h))
	}
	for i, e := range h {
		if q.at[i] != e.at || q.page[i] != e.page {
			return fmt.Errorf("slot %d holds (%d, %d), reference (%d, %d)", i, q.at[i], q.page[i], e.at, e.page)
		}
	}
	return nil
}

// TestEventQueueMatchesReference drives eventQueue and the reference
// heap through the same random push/pop sequences and compares pops and
// the full arrangement after every operation. Keys come from tiny ranges
// so most compares are ties, and from the ends of the valid key range.
func TestEventQueueMatchesReference(t *testing.T) {
	keyRanges := []struct {
		name string
		key  func(r *rand.Rand) time.Duration
	}{
		{"ties2", func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(2)) }},
		{"ties8", func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(8)) }},
		{"ties64", func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(64)) }},
		{"wide", func(r *rand.Rand) time.Duration { return time.Duration(r.Int63n(math.MaxInt64)) }},
		{"extremes", func(r *rand.Rand) time.Duration {
			switch r.Intn(3) {
			case 0:
				return 0
			case 1:
				return math.MaxInt64 - 1
			}
			return time.Duration(r.Int63n(math.MaxInt64))
		}},
	}
	for _, kr := range keyRanges {
		t.Run(kr.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				r := rand.New(rand.NewSource(seed))
				// Heapify a random initial population, as New does.
				n0 := r.Intn(200)
				q := newEventQueue(n0)
				h := make(refHeap, 0, n0)
				for i := 0; i < n0; i++ {
					k := kr.key(r)
					q.add(k, mem.PageID(i))
					h = append(h, refEvent{k, mem.PageID(i)})
				}
				q.init()
				h.init()
				if err := sameArrangement(&q, h); err != nil {
					t.Fatalf("seed %d: after init: %v", seed, err)
				}
				next := mem.PageID(n0)
				for op := 0; op < 3000; op++ {
					if len(h) > 0 && r.Intn(2) == 0 {
						at, page := q.pop()
						e := h.pop()
						if at != e.at || page != e.page {
							t.Fatalf("seed %d op %d: popped (%d, %d), reference (%d, %d)", seed, op, at, page, e.at, e.page)
						}
					} else {
						k := kr.key(r)
						q.push(k, next)
						h.push(refEvent{k, next})
						next++
					}
					if err := sameArrangement(&q, h); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
				}
			}
		})
	}
}

// refWorkload is the workload generator as it was written against the
// reference heap: its own band pick in New, a DiurnalFactor call per
// event in Tick. Workload must emit the same (page, write) sequence.
type refWorkload struct {
	arch    *Archetype
	pages   int
	initial int
	periods []float64
	rng     *rand.Rand
	events  refHeap
	next    time.Duration
	grown   float64
	last    time.Duration
}

func newRefWorkload(cfg Config) *refWorkload {
	rng := simtime.Rand(cfg.Seed, "workload/"+cfg.Name)
	a := cfg.Archetype
	pages := a.PagesMin
	if a.PagesMax > a.PagesMin {
		pages += rng.Intn(a.PagesMax - a.PagesMin)
	}
	w := &refWorkload{
		arch: a, pages: pages, initial: pages,
		periods: make([]float64, pages), rng: rng,
		events: make(refHeap, 0, pages), last: cfg.Start,
	}
	total := 0.0
	for _, b := range a.Bands {
		total += b.Weight
	}
	for i := 0; i < pages; i++ {
		u := rng.Float64() * total
		var band Band
		for _, b := range a.Bands {
			if u < b.Weight {
				band = b
				break
			}
			u -= b.Weight
		}
		if band.Weight == 0 {
			band = a.Bands[len(a.Bands)-1]
		}
		lo := math.Log(band.MinPeriod.Seconds())
		hi := math.Log(band.MaxPeriod.Seconds())
		p := math.Exp(lo + rng.Float64()*(hi-lo))
		w.periods[i] = a.EffectivePeriod(p)
		first := cfg.Start + time.Duration(rng.Float64()*w.periods[i]*float64(time.Second))
		w.events = append(w.events, refEvent{at: first, page: mem.PageID(i)})
	}
	w.events.init()
	if a.ScanEvery > 0 {
		w.next = cfg.Start + a.ScanEvery
	}
	return w
}

func (w *refWorkload) diurnal(t time.Duration) float64 {
	if w.arch.DiurnalAmplitude == 0 {
		return 1
	}
	phase := 2*math.Pi*float64(t)/float64(24*time.Hour) + w.arch.DiurnalPhase
	return 1 + w.arch.DiurnalAmplitude*math.Sin(phase)
}

func (w *refWorkload) tick(now time.Duration, access func(id mem.PageID, write bool)) {
	for len(w.events) > 0 && w.events[0].at <= now {
		e := w.events.pop()
		write := w.rng.Float64() < w.arch.WriteFraction
		access(e.page, write)
		mean := w.periods[e.page] / w.diurnal(now)
		gap := w.rng.ExpFloat64() * mean
		if gap < 0.5 {
			gap = 0.5
		}
		w.events.push(refEvent{at: e.at + time.Duration(gap*float64(time.Second)), page: e.page})
	}
	if w.arch.ScanEvery > 0 && now >= w.next {
		for i := 0; i < w.pages; i++ {
			access(mem.PageID(i), false)
		}
		for now >= w.next {
			w.next += w.arch.ScanEvery
		}
	}
}

func (w *refWorkload) growthDue(now time.Duration) int {
	if w.arch.GrowthPerHour == 0 || now <= w.last {
		return 0
	}
	dt := now - w.last
	w.last = now
	w.grown += float64(w.initial) * w.arch.GrowthPerHour * dt.Hours()
	n := int(w.grown)
	w.grown -= float64(n)
	return n
}

func (w *refWorkload) addPages(n int, now time.Duration) {
	a := w.arch
	for i := 0; i < n; i++ {
		total := 0.0
		for _, b := range a.Bands {
			total += b.Weight
		}
		u := w.rng.Float64() * total
		band := a.Bands[len(a.Bands)-1]
		for _, b := range a.Bands {
			if u < b.Weight {
				band = b
				break
			}
			u -= b.Weight
		}
		lo := math.Log(band.MinPeriod.Seconds())
		hi := math.Log(band.MaxPeriod.Seconds())
		period := a.EffectivePeriod(math.Exp(lo + w.rng.Float64()*(hi-lo)))
		w.periods = append(w.periods, period)
		id := mem.PageID(w.pages)
		w.pages++
		w.events.push(refEvent{at: now + time.Duration(w.rng.ExpFloat64()*period*float64(time.Second)), page: id})
	}
}

// TestTickMatchesReference runs every standard archetype, growing and
// with a full-dataset scan due, against the reference generator and
// requires the identical (page, write) callback sequence, page periods
// and queue arrangement.
func TestTickMatchesReference(t *testing.T) {
	type access struct {
		page  mem.PageID
		write bool
	}
	for _, std := range Archetypes {
		t.Run(std.Name, func(t *testing.T) {
			a := *std
			a.PagesMin, a.PagesMax = a.PagesMin/4, a.PagesMax/4
			a.GrowthPerHour = 0.25
			a.ScanEvery = time.Hour
			cfg := Config{Archetype: &a, Name: "eq", Seed: 17, Start: 90 * time.Second}
			w, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefWorkload(cfg)
			if w.Pages() != ref.pages {
				t.Fatalf("pages %d, reference %d", w.Pages(), ref.pages)
			}
			var got, want []access
			total := 0
			for now := cfg.Start; now <= cfg.Start+3*time.Hour; now += time.Minute {
				got, want = got[:0], want[:0]
				w.Tick(now, func(id mem.PageID, wr bool) { got = append(got, access{id, wr}) })
				ref.tick(now, func(id mem.PageID, wr bool) { want = append(want, access{id, wr}) })
				if len(got) != len(want) {
					t.Fatalf("t=%v: %d accesses, reference %d", now, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("t=%v: access %d is %+v, reference %+v", now, i, got[i], want[i])
					}
				}
				total += len(got)
				n, nr := w.GrowthDue(now), ref.growthDue(now)
				if n != nr {
					t.Fatalf("t=%v: growth %d, reference %d", now, n, nr)
				}
				w.AddPages(n, now)
				ref.addPages(nr, now)
			}
			if w.Pages() == w.initial {
				t.Fatal("workload never grew")
			}
			for i, p := range ref.periods {
				if w.periods[i] != p {
					t.Fatalf("page %d period %v, reference %v", i, w.periods[i], p)
				}
			}
			if err := sameArrangement(&w.events, ref.events); err != nil {
				t.Fatalf("final queue: %v", err)
			}
			if total == 0 {
				t.Fatal("no accesses")
			}
		})
	}
}

// TestNegativeTimeRejected pins the queue's key precondition: keys are
// never negative, so New refuses a negative start and AddPages panics on
// a negative time instead of scheduling one.
func TestNegativeTimeRejected(t *testing.T) {
	for _, tc := range []struct {
		start time.Duration
		ok    bool
	}{
		{math.MinInt64, false},
		{-time.Hour, false},
		{-1, false},
		{0, true},
		{1, true},
		{90 * 24 * time.Hour, true},
	} {
		_, err := New(Config{Archetype: WebFrontend, Name: "neg", Seed: 1, Start: tc.start})
		if (err == nil) != tc.ok {
			t.Errorf("New(Start=%v): err=%v, want ok=%v", tc.start, err, tc.ok)
		}
	}
	w := newWL(t, WebFrontend, 1)
	defer func() {
		if recover() == nil {
			t.Error("AddPages at a negative time did not panic")
		}
	}()
	w.AddPages(1, -time.Second)
}
