package main

import (
	"fmt"
	"math"
	"sort"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
)

// The checkers below compute every expected answer from the benchmark's
// own record of which points exist, never from the program under test.

func dist2(p, q geom.Point) float64 {
	dx, dy := p[0]-q[0], p[1]-q[1]
	return dx*dx + dy*dy
}

// liveSet is the exact live set of a single-caller workload, kept in a
// slice for scans with an ID index for O(1) deletes.
type liveSet struct {
	items []core.Item
	pos   map[int32]int
}

func newLiveSet(items []core.Item) *liveSet {
	s := &liveSet{pos: make(map[int32]int, len(items))}
	for _, it := range items {
		s.add(it)
	}
	return s
}

func (s *liveSet) add(it core.Item) {
	s.pos[it.ID] = len(s.items)
	s.items = append(s.items, it)
}

func (s *liveSet) remove(id int32) {
	i, ok := s.pos[id]
	if !ok {
		return
	}
	last := s.items[len(s.items)-1]
	s.items[i] = last
	s.pos[last.ID] = i
	s.items = s.items[:len(s.items)-1]
	delete(s.pos, id)
}

// bruteKNN returns the k nearest live items to q in (dist², ID) order,
// by one scan keeping the k best in an insertion-sorted slice.
func (s *liveSet) bruteKNN(q geom.Point, k int) []heapx.Candidate {
	best := make([]heapx.Candidate, 0, k+1)
	for _, it := range s.items {
		c := heapx.Candidate{Dist2: dist2(q, it.P), ID: it.ID}
		if len(best) == k && !c.Less(best[k-1]) {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return c.Less(best[i]) })
		best = append(best, heapx.Candidate{})
		copy(best[i+1:], best[i:])
		best[i] = c
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// bruteRange returns the sorted IDs of the live items inside box (closed).
func (s *liveSet) bruteRange(box geom.Box) []int32 {
	var ids []int32
	for _, it := range s.items {
		if box.Contains(it.P) {
			ids = append(ids, it.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkKNNExact compares a kNN answer with the brute-force one: same IDs in
// the same order and bit-identical squared distances.
func checkKNNExact(got, want []heapx.Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("knn: %d answers, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist2 != want[i].Dist2 {
			return fmt.Errorf("knn: answer %d is (id %d, d2 %g), want (id %d, d2 %g)",
				i, got[i].ID, got[i].Dist2, want[i].ID, want[i].Dist2)
		}
	}
	return nil
}

// checkRangeExact compares a range report with the brute-force scan.
func checkRangeExact(got []core.Item, want []int32) error {
	ids := make([]int32, len(got))
	for i, it := range got {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != len(want) {
		return fmt.Errorf("range: %d items, want %d", len(ids), len(want))
	}
	for i := range ids {
		if ids[i] != want[i] {
			return fmt.Errorf("range: item %d is id %d, want %d", i, ids[i], want[i])
		}
	}
	return nil
}

// history is the open-loop record of every point that existed in a run,
// with logical timestamps from one clock shared by all requests: a read is
// stamped just before it is sent and just after its reply, a write when it
// is sent and when it is acknowledged. These stamps decide which points a
// read must see whatever order the in-flight writes took. Everything in it
// is pointer-free, so holding it costs the collector nothing.
type history struct {
	pts     [][2]float64 // by ID; IDs are dense from 0
	insSent []int64      // 0 = never sent; base points carry 1
	insAck  []int64      // 0 = never acknowledged
	delSent []int64
	delAck  []int64
	grid    *grid
}

// newHistory records the base set, whose IDs must be 0..len(base)-1.
func newHistory(base []core.Item) *history {
	h := &history{grid: newGrid(256)}
	for _, it := range base {
		h.planInsert(it.ID, [2]float64{it.P[0], it.P[1]})
		h.insSent[it.ID], h.insAck[it.ID] = 1, 1
	}
	return h
}

// planInsert registers the next ID, a point the generator will insert, so
// the grid knows every point that can ever appear in an answer. It must
// not run while requests are in flight.
func (h *history) planInsert(id int32, p [2]float64) {
	if int(id) != len(h.pts) {
		panic(fmt.Sprintf("history: id %d planned out of order", id))
	}
	h.pts = append(h.pts, p)
	h.insSent = append(h.insSent, 0)
	h.insAck = append(h.insAck, 0)
	h.delSent = append(h.delSent, 0)
	h.delAck = append(h.delAck, 0)
	h.grid.add(id, p)
}

func (h *history) known(id int32) bool { return id >= 0 && int(id) < len(h.pts) }

// at reports whether p is exactly where id was inserted.
func (h *history) at(id int32, p geom.Point) bool {
	q := h.pts[id]
	return len(p) == 2 && p[0] == q[0] && p[1] == q[1]
}

func (h *history) dist2(q geom.Point, id int32) float64 {
	p := h.pts[id]
	dx, dy := p[0]-q[0], p[1]-q[1]
	return dx*dx + dy*dy
}

func (h *history) inBox(box geom.Box, id int32) bool {
	p := h.pts[id]
	return p[0] >= box.Lo[0] && p[0] <= box.Hi[0] && p[1] >= box.Lo[1] && p[1] <= box.Hi[1]
}

// stable reports whether id must appear in a read sent at sent and
// answered at done: its insert was acknowledged before the read was sent,
// and no delete of it had been sent by the time the read was answered.
func (h *history) stable(id int32, sent, done int64) bool {
	ack := h.insAck[id]
	ds := h.delSent[id]
	return ack != 0 && ack < sent && (ds == 0 || ds > done)
}

// couldSee reports whether id may appear in such a read: its insert was
// sent before the read was answered and no delete of it was acknowledged
// before the read was sent.
func (h *history) couldSee(id int32, sent, done int64) bool {
	if !h.known(id) {
		return false
	}
	is := h.insSent[id]
	da := h.delAck[id]
	return is != 0 && is < done && (da == 0 || da > sent)
}

// neighbor is one reported kNN answer.
type neighbor struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

// checkKNNOpen checks a kNN answer (IDs and reported distances) against
// properties that hold however the concurrent writes were ordered.
func (h *history) checkKNNOpen(q geom.Point, k int, got []answer, sent, done int64) error {
	if len(got) != k {
		return fmt.Errorf("knn: %d answers, want %d", len(got), k)
	}
	seen := make(map[int32]bool, k)
	for i, a := range got {
		if !h.couldSee(a.id, sent, done) {
			return fmt.Errorf("knn: answer id %d was not live during the read", a.id)
		}
		if seen[a.id] {
			return fmt.Errorf("knn: id %d reported twice", a.id)
		}
		seen[a.id] = true
		want := math.Sqrt(h.dist2(q, a.id))
		if math.Abs(a.dist-want) > 1e-12 {
			return fmt.Errorf("knn: id %d reported at distance %v, its coordinates give %v", a.id, a.dist, want)
		}
		if i > 0 && a.dist < got[i-1].dist {
			return fmt.Errorf("knn: answers out of distance order at %d", i)
		}
	}
	kth := h.dist2(q, got[k-1].id)
	r := math.Sqrt(kth)
	var missing error
	h.grid.visit(geom.Box{Lo: geom.Point{q[0] - r, q[1] - r}, Hi: geom.Point{q[0] + r, q[1] + r}}, func(id int32) {
		if missing == nil && !seen[id] && h.dist2(q, id) < kth && h.stable(id, sent, done) {
			missing = fmt.Errorf("knn: stable id %d is closer than the k-th answer but missing", id)
		}
	})
	return missing
}

// checkReported checks one reported range item as it arrives: a known ID
// at the coordinates it was inserted with, inside the box.
func (h *history) checkReported(box geom.Box, it core.Item) error {
	if !h.known(it.ID) {
		return fmt.Errorf("range: unknown id %d", it.ID)
	}
	if !h.at(it.ID, it.P) {
		return fmt.Errorf("range: id %d reported at %v, inserted at %v", it.ID, it.P, h.pts[it.ID])
	}
	if !box.Contains(it.P) {
		return fmt.Errorf("range: id %d at %v outside the box", it.ID, it.P)
	}
	return nil
}

// checkRangeOpen checks a range report's IDs (coordinates were checked on
// arrival): each was live during the read, none twice, and every stable
// point in the box is reported.
func (h *history) checkRangeOpen(box geom.Box, got []answer, sent, done int64) error {
	seen := make(map[int32]bool, len(got))
	for _, a := range got {
		if !h.couldSee(a.id, sent, done) {
			return fmt.Errorf("range: id %d was not live during the read", a.id)
		}
		if seen[a.id] {
			return fmt.Errorf("range: id %d reported twice", a.id)
		}
		seen[a.id] = true
	}
	var missing error
	h.grid.visit(box, func(id int32) {
		if missing == nil && !seen[id] && h.inBox(box, id) && h.stable(id, sent, done) {
			missing = fmt.Errorf("range: stable id %d inside the box but missing", id)
		}
	})
	return missing
}

// checkFinal compares the final contents (a full-box range after the load
// stopped) with the base set plus acknowledged inserts minus acknowledged
// deletes. IDs whose write was attempted but not acknowledged are
// uncertain and skipped.
func (h *history) checkFinal(got []core.Item) error {
	present := make(map[int32]bool, len(got))
	for _, it := range got {
		if present[it.ID] {
			return fmt.Errorf("final: id %d present twice", it.ID)
		}
		present[it.ID] = true
		if !h.known(it.ID) || !h.at(it.ID, it.P) {
			return fmt.Errorf("final: unexpected item id %d at %v", it.ID, it.P)
		}
	}
	for id := range h.pts {
		uncertain := (h.insSent[id] != 0 && h.insAck[id] == 0) || (h.delSent[id] != 0 && h.delAck[id] == 0)
		if uncertain {
			continue
		}
		want := h.insAck[id] != 0 && h.delAck[id] == 0
		if want != present[int32(id)] {
			return fmt.Errorf("final: id %d present=%v, want %v", id, present[int32(id)], want)
		}
	}
	return nil
}

// grid buckets point IDs over the unit square for the checkers' scans.
type grid struct {
	n     int
	cells [][]int32
}

func newGrid(n int) *grid {
	return &grid{n: n, cells: make([][]int32, n*n)}
}

func (g *grid) cell(x float64) int {
	c := int(x * float64(g.n))
	if c < 0 {
		return 0
	}
	if c >= g.n {
		return g.n - 1
	}
	return c
}

func (g *grid) add(id int32, p [2]float64) {
	c := g.cell(p[1])*g.n + g.cell(p[0])
	g.cells[c] = append(g.cells[c], id)
}

// visit calls fn for every ID in a grid cell overlapping box.
func (g *grid) visit(box geom.Box, fn func(id int32)) {
	x0, x1 := g.cell(box.Lo[0]), g.cell(box.Hi[0])
	y0, y1 := g.cell(box.Lo[1]), g.cell(box.Hi[1])
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, id := range g.cells[y*g.n+x] {
				fn(id)
			}
		}
	}
}
