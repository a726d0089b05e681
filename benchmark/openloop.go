package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
)

// The open-loop generator: Poisson arrivals at a fixed rate, each request
// sent at its scheduled time whether or not earlier ones have answered,
// and timed from that scheduled time (so a stall is charged to every
// request it delays).

type opKind int

const (
	opKNN opKind = iota
	opRange
	opInsert
	opDelete
	numOpKinds
)

var opNames = [numOpKinds]string{"knn", "range", "insert", "delete"}

func (k opKind) read() bool { return k == opKNN || k == opRange }

// openK is the k of every open-loop kNN request.
const openK = 10

// mixShares is the request mix of both open-loop workloads. It takes the
// weights the repository's load generator gives these kinds by default
// (internal/load DefaultMix: knn=4, range=2, insert=2), copied here so the
// benchmark does not import that package. The default mix removes points
// by expiry, which this benchmark does not send, so the insert weight is
// split evenly between inserts and deletes and the live set keeps its
// size: knn 4, range 2, insert 1, delete 1.
var mixShares = [numOpKinds]float64{4.0 / 8, 2.0 / 8, 1.0 / 8, 1.0 / 8}

// op is one scheduled request, pointer-free so a window's list costs the
// collector nothing: kNN uses a as the query point, range a and b as the
// box's corners, insert and delete id and a as the point.
type op struct {
	at   time.Duration // scheduled send time, from the window's start
	kind opKind
	id   int32
	a, b [2]float64
}

func (o *op) point() geom.Point { return geom.Point{o.a[0], o.a[1]} }
func (o *op) box() geom.Box {
	return geom.Box{Lo: geom.Point{o.a[0], o.a[1]}, Hi: geom.Point{o.b[0], o.b[1]}}
}
func (o *op) item() core.Item { return core.Item{P: o.point(), ID: o.id} }

// target is one way into the program: its HTTP front door or a public Go
// API. Every method blocks until the answer arrives.
type target interface {
	knn(q geom.Point, k int) ([]neighbor, error)
	rangeq(box geom.Box) ([]core.Item, error)
	insert(it core.Item) error
	remove(it core.Item) error
}

// loadGen makes the seeded request stream. Inserts carry fresh IDs;
// deletes take base points in a seeded order, so the stream never depends
// on which earlier writes have been acknowledged.
type loadGen struct {
	rng     *rand.Rand
	dens    *density
	base    []core.Item
	delPerm []int
	nextDel int
	nextID  int32
	hist    *history
}

func newLoadGen(seed int64, n int) *loadGen {
	rng := rand.New(rand.NewSource(seed))
	dens := newDensity()
	pts := dens.points(rng, n)
	base := make([]core.Item, n)
	for i, p := range pts {
		base[i] = core.Item{P: p, ID: int32(i)}
	}
	return &loadGen{
		rng:     rng,
		dens:    dens,
		base:    base,
		delPerm: rng.Perm(n),
		nextID:  int32(n),
		hist:    newHistory(base),
	}
}

// schedule draws the requests of one window at rate per second.
func (g *loadGen) schedule(rate float64, dur time.Duration) ([]op, error) {
	var ops []op
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return ops, nil
		}
		o := op{at: at}
		u := g.rng.Float64()
		switch {
		case u < mixShares[opKNN]:
			o.kind = opKNN
			p := g.base[g.rng.Intn(len(g.base))].P
			o.a = [2]float64{clamp01(p[0] + 1e-3*g.rng.NormFloat64()), clamp01(p[1] + 1e-3*g.rng.NormFloat64())}
		case u < mixShares[opKNN]+mixShares[opRange]:
			o.kind = opRange
			box := boxAt(g.base[g.rng.Intn(len(g.base))].P)
			o.a, o.b = [2]float64{box.Lo[0], box.Lo[1]}, [2]float64{box.Hi[0], box.Hi[1]}
		case u < mixShares[opKNN]+mixShares[opRange]+mixShares[opInsert]:
			o.kind = opInsert
			p := g.dens.point(g.rng)
			o.id, o.a = g.nextID, [2]float64{p[0], p[1]}
			g.nextID++
			g.hist.planInsert(o.id, o.a)
		default:
			o.kind = opDelete
			if g.nextDel >= len(g.delPerm) {
				return nil, fmt.Errorf("load generator: out of base points to delete")
			}
			it := g.base[g.delPerm[g.nextDel]]
			o.id, o.a = it.ID, [2]float64{it.P[0], it.P[1]}
			g.nextDel++
		}
		ops = append(ops, o)
	}
}

// answer is one reported point of a read: a kNN neighbour with its
// reported distance, or a range item.
type answer struct {
	id   int32
	dist float64
}

// sample is what one request did; its answers sit in the window's arena.
// Like op it holds no pointers.
type sample struct {
	launched, failed, bad bool
	lat, late             time.Duration // done−scheduled, sent−scheduled
	end                   time.Duration // when the answer arrived, from the window's start
	sent, done            int64         // logical clock stamps
	off, n                int32         // answers[off:off+n]
}

// windowResult is one window's requests and how they went.
type windowResult struct {
	ops     []op
	samples []sample
	start   time.Time
	dur     time.Duration
	aborted bool

	mu      sync.Mutex
	answers []answer
	errs    map[int]error // by op index: failed requests and failed checks
}

func newWindow(ops []op, dur time.Duration) *windowResult {
	return &windowResult{ops: ops, samples: make([]sample, len(ops)), dur: dur, errs: map[int]error{}}
}

// runner sends windows of requests at one target, stamping the shared
// history as it goes.
type runner struct {
	t     target
	hist  *history
	clock atomic.Int64
	// all keeps every window for the checks made once the load stops.
	all []*windowResult
}

func newRunner(t target, h *history) *runner {
	r := &runner{t: t, hist: h}
	r.clock.Store(1) // base points are stamped 1
	return r
}

func (r *runner) tick() int64 { return r.clock.Add(1) }

// run sends ops on schedule. It stops launching once more than maxInflight
// requests are outstanding, and waits for every launched request before
// returning.
func (r *runner) run(ops []op, dur time.Duration, maxInflight int64) *windowResult {
	w := newWindow(ops, dur)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	w.start = time.Now()
	for i := range ops {
		due := w.start.Add(ops[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if inflight.Load() > maxInflight {
			w.aborted = true
			break
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			r.send(w, i, due)
		}(i, due)
	}
	wg.Wait()
	r.all = append(r.all, w)
	return w
}

// send makes request i of w, due at due, and records what happened.
func (r *runner) send(w *windowResult, i int, due time.Time) {
	o, s := &w.ops[i], &w.samples[i]
	h := r.hist
	s.launched = true
	s.late = time.Since(due)
	s.sent = r.tick()
	var nbrs []neighbor
	var items []core.Item
	var err error
	switch o.kind {
	case opKNN:
		nbrs, err = r.t.knn(o.point(), openK)
	case opRange:
		items, err = r.t.rangeq(o.box())
	case opInsert:
		h.insSent[o.id] = s.sent
		err = r.t.insert(o.item())
	case opDelete:
		h.delSent[o.id] = s.sent
		err = r.t.remove(o.item())
	}
	s.done = r.tick()
	now := time.Now()
	s.end = now.Sub(w.start)
	s.lat = now.Sub(due)
	if err != nil {
		s.failed = true
		w.record(i, err)
		return
	}
	switch o.kind {
	case opInsert:
		h.insAck[o.id] = s.done
	case opDelete:
		h.delAck[o.id] = s.done
	case opKNN, opRange:
		var bad error
		box := o.box()
		w.mu.Lock()
		s.off = int32(len(w.answers))
		for _, nb := range nbrs {
			w.answers = append(w.answers, answer{id: nb.ID, dist: nb.Dist})
		}
		for _, it := range items {
			w.answers = append(w.answers, answer{id: it.ID})
			if bad == nil {
				bad = h.checkReported(box, it)
			}
		}
		s.n = int32(len(w.answers)) - s.off
		w.mu.Unlock()
		if bad != nil {
			s.bad = true
			w.record(i, bad)
		}
	}
}

func (w *windowResult) record(i int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.errs[i] = err
}

func (w *windowResult) ok(i int) bool {
	s := &w.samples[i]
	return s.launched && !s.failed
}

// latencies returns the latencies in ms of a window's successful requests
// of the read or the write class.
func (w *windowResult) latencies(read bool) []float64 {
	var xs []float64
	for i := range w.samples {
		if w.ok(i) && w.ops[i].kind.read() == read {
			xs = append(xs, ms(w.samples[i].lat))
		}
	}
	return xs
}

func (w *windowResult) lateness() []float64 {
	var xs []float64
	for _, s := range w.samples {
		if s.launched {
			xs = append(xs, ms(s.late))
		}
	}
	return xs
}

// count tallies a window's launched and failed requests per kind.
func (w *windowResult) count(attempted, failed map[string]int64) {
	for i, s := range w.samples {
		if !s.launched {
			continue
		}
		name := opNames[w.ops[i].kind]
		attempted[name]++
		if s.failed {
			failed[name]++
		}
	}
}

// completed counts a window's successful requests of the given kinds.
func (w *windowResult) completed(kinds ...opKind) int {
	n := 0
	for i := range w.samples {
		if w.ok(i) && slices.Contains(kinds, w.ops[i].kind) {
			n++
		}
	}
	return n
}

// checkAll runs the order-independent read checks over every window.
func (r *runner) checkAll() error {
	for _, w := range r.all {
		for i, s := range w.samples {
			if !w.ok(i) {
				continue
			}
			if s.bad {
				return w.errs[i]
			}
			o := &w.ops[i]
			got := w.answers[s.off : s.off+s.n]
			var err error
			switch o.kind {
			case opKNN:
				err = r.hist.checkKNNOpen(o.point(), openK, got, s.sent, s.done)
			case opRange:
				err = r.hist.checkRangeOpen(o.box(), got, s.sent, s.done)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// firstError returns the first failed request's error, for the report.
func (r *runner) firstError() error {
	for _, w := range r.all {
		for i, s := range w.samples {
			if s.failed {
				return fmt.Errorf("%s: %w", opNames[w.ops[i].kind], w.errs[i])
			}
		}
	}
	return nil
}

// saturate sends ops from a fixed number of closed-loop callers, each
// sending its next request as soon as its last one is answered, for dur:
// the program is offered all it can serve, while the backlog stays capped
// at the number of callers.
func (r *runner) saturate(ops []op, callers int, dur time.Duration) *windowResult {
	w := newWindow(ops, dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	w.start = time.Now()
	deadline := w.start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				r.send(w, int(i), time.Now())
			}
		}()
	}
	wg.Wait()
	w.dur = time.Since(w.start)
	r.all = append(r.all, w)
	return w
}

// reqClass is a class of request the capacity windows offer alone: kNN,
// range, or writes (inserts and deletes together, in the stream's order).
type reqClass int

const (
	classKNN reqClass = iota
	classRange
	classWrite
	numClasses
)

func classOf(k opKind) reqClass {
	switch k {
	case opKNN:
		return classKNN
	case opRange:
		return classRange
	}
	return classWrite
}

// classShares is each class's share of the request mix.
var classShares = [numClasses]float64{mixShares[opKNN], mixShares[opRange], mixShares[opInsert] + mixShares[opDelete]}

const (
	// capacitySlice is how long one class is offered at a time.
	capacitySlice = time.Second
	// sliceOps caps the requests one slice can send: well above what the
	// program serves in a slice, so the cap never ends a slice early.
	sliceOps = 20000
)

// capacityResult is what the capacity windows found, per class.
type capacityResult struct {
	done      [numClasses]int
	cpu, wall [numClasses]time.Duration
	slices    int
	reads     []float64 // latencies in ms of every successful read
}

// capacity splits ops by class and offers them to the program from
// callers closed-loop callers, one class per slice, in turns of a slice of
// each class, until dur has passed at the end of a turn. It records each
// class's completions and the process CPU time and wall time its slices
// took, and makes a pass of the yardstick y before each slice. A read class that has sent its whole list starts it again (a
// repeated read is checked like any other); the writes, whose IDs are
// unique, stop when theirs is used up.
func (r *runner) capacity(ops []op, callers int, dur time.Duration, y *yardstick) *capacityResult {
	var lists [numClasses][]op
	for _, o := range ops {
		c := classOf(o.kind)
		lists[c] = append(lists[c], o)
	}
	var pos [numClasses]int
	cr := &capacityResult{}
	for start := time.Now(); time.Since(start) < dur; {
		sent := false
		for c := range lists {
			if pos[c] == len(lists[c]) && reqClass(c) != classWrite {
				pos[c] = 0
			}
			if pos[c] == len(lists[c]) {
				continue
			}
			y.run()
			c0, w0 := cpuTime(), time.Now()
			w := r.saturate(lists[c][pos[c]:min(pos[c]+sliceOps, len(lists[c]))], callers, capacitySlice)
			cr.cpu[c] += cpuTime() - c0
			cr.wall[c] += time.Since(w0)
			pos[c] += w.launched()
			cr.done[c] += w.completed(opKNN, opRange, opInsert, opDelete)
			cr.reads = append(cr.reads, w.latencies(true)...)
			cr.slices++
			sent = true
		}
		if !sent {
			break
		}
	}
	return cr
}

// launched counts the requests of a window that were sent.
func (w *windowResult) launched() int {
	n := 0
	for _, s := range w.samples {
		if s.launched {
			n++
		}
	}
	return n
}
