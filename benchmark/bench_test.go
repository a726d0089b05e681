package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
)

// toyItems is a small point set with IDs 0..n-1.
func toyItems(n int) []core.Item {
	rng := rand.New(rand.NewSource(7))
	items := make([]core.Item, n)
	for i := range items {
		items[i] = core.Item{P: geom.Point{rng.Float64(), rng.Float64()}, ID: int32(i)}
	}
	return items
}

func TestKNNCheckersRejectSwappedKth(t *testing.T) {
	items := toyItems(500)
	live := newLiveSet(items)
	h := newHistory(items)
	q := geom.Point{0.5, 0.5}
	const k = 5
	want := live.bruteKNN(q, k+1)
	truth, swapped := want[:k], append(append([]heapx.Candidate(nil), want[:k-1]...), want[k])
	if err := checkKNNExact(truth, live.bruteKNN(q, k)); err != nil {
		t.Fatalf("exact checker rejected the true answer: %v", err)
	}
	if checkKNNExact(swapped, live.bruteKNN(q, k)) == nil {
		t.Fatal("exact checker accepted a k-th neighbour swapped for the (k+1)-th")
	}
	open := func(cs []heapx.Candidate) error {
		got := make([]answer, len(cs))
		for i, c := range cs {
			got[i] = answer{id: c.ID, dist: math.Sqrt(c.Dist2)}
		}
		return h.checkKNNOpen(q, k, got, 2, 3)
	}
	if err := open(truth); err != nil {
		t.Fatalf("open-loop checker rejected the true answer: %v", err)
	}
	if open(swapped) == nil {
		t.Fatal("open-loop checker accepted a k-th neighbour swapped for the (k+1)-th")
	}
}

func TestRangeCheckersRejectMissingPoint(t *testing.T) {
	items := toyItems(500)
	live := newLiveSet(items)
	h := newHistory(items)
	box := geom.Box{Lo: geom.Point{0.2, 0.2}, Hi: geom.Point{0.5, 0.5}}
	want := live.bruteRange(box)
	var truth []core.Item
	for _, it := range items {
		if box.Contains(it.P) {
			truth = append(truth, it)
		}
	}
	if len(truth) < 2 {
		t.Fatalf("toy box holds %d points", len(truth))
	}
	short := truth[1:]
	if err := checkRangeExact(truth, want); err != nil {
		t.Fatalf("exact checker rejected the true answer: %v", err)
	}
	if checkRangeExact(short, want) == nil {
		t.Fatal("exact checker accepted a report missing one point")
	}
	ids := func(its []core.Item) []answer {
		out := make([]answer, len(its))
		for i, it := range its {
			out[i] = answer{id: it.ID}
			if err := h.checkReported(box, it); err != nil {
				t.Fatalf("reported item rejected: %v", err)
			}
		}
		return out
	}
	if err := h.checkRangeOpen(box, ids(truth), 2, 3); err != nil {
		t.Fatalf("open-loop checker rejected the true answer: %v", err)
	}
	if h.checkRangeOpen(box, ids(short), 2, 3) == nil {
		t.Fatal("open-loop checker accepted a report missing one point")
	}
}

func TestFinalCheckerRejectsLostInsert(t *testing.T) {
	items := toyItems(100)
	h := newHistory(items)
	extra := core.Item{P: geom.Point{0.25, 0.75}, ID: 100}
	h.planInsert(extra.ID, [2]float64{0.25, 0.75})
	h.insSent[100], h.insAck[100] = 2, 3
	truth := append(append([]core.Item(nil), items...), extra)
	if err := h.checkFinal(truth); err != nil {
		t.Fatalf("final checker rejected the true state: %v", err)
	}
	if h.checkFinal(items) == nil {
		t.Fatal("final checker accepted a state missing one acknowledged insert")
	}
}

// TestToyRuns runs every workload, untraced and traced, at toy size and
// checks that each prints every metric it must.
func TestToyRuns(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: time.Second, trace: trace, toy: true, workDir: t.TempDir()}
			res, _, err := execute(run, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := e2eUnits
			if trace {
				want = layerUnits
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %+v", name, trace, res)
			}
			for m, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, trace, m, v.Value)
				}
			}
		}
	}
}
