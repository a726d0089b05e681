package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The yardstick is a fixed kernel of the benchmark's own: kNN searches in
// a small implicit kd-tree, and a rebuild of part of it. Every run times
// it over and over between the measured parts. The host this benchmark
// was made on ran the program up to twice as slowly, in CPU time and not
// only in wall time, for minutes at a time while other tenants were busy;
// over 60 runs of tree-batch made one after the other the program's CPU
// throughput and the yardstick's speed moved together (correlation 0.96),
// and their ratio spread by 5% where the throughput alone spread by 22%.
// So the benchmark scales its CPU times by yardRef over the run's median
// yardstick pass and reports them in reference seconds. A change to the
// program leaves the yardstick as it was.

// yardRef is about the yardstick's CPU time on the quiet 2-vCPU Xeon VM
// the benchmark was made on (go1.24): the unit of reference seconds.
const yardRef = 30 * time.Millisecond

const (
	yardPoints  = 1 << 17 // 2 MB of points
	yardQueries = 2000
	yardRebuild = 1 << 14
	yardLeaf    = 16
	yardK       = 10
)

// yardstick holds the kernel's fixed inputs, drawn from the workloads'
// point mixture with a seed of its own.
type yardstick struct {
	pts     [][2]float64 // in kd order
	queries [][2]float64
	passes  []float64 // CPU time of every pass so far, in ms
	sink    float64
}

func newYardstick() *yardstick {
	rng := rand.New(rand.NewSource(11))
	dens := newDensity()
	y := &yardstick{}
	for _, p := range dens.points(rng, yardPoints) {
		y.pts = append(y.pts, [2]float64{p[0], p[1]})
	}
	kdBuild(y.pts, 0)
	for i := 0; i < yardQueries; i++ {
		p := dens.point(rng)
		y.queries = append(y.queries, [2]float64{p[0], p[1]})
	}
	return y
}

// run does one pass of the kernel and records its CPU time. The pass is
// timed on its own thread, so work the program does in the background at
// the same time is not counted.
func (y *yardstick) run() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	for _, q := range y.queries {
		var best [yardK]float64
		for i := range best {
			best[i] = 2
		}
		kdSearch(y.pts, 0, q, &best)
		y.sink += best[0]
	}
	part := slices.Clone(y.pts[:yardRebuild])
	kdBuild(part, 0)
	y.sink += part[0][0]
	y.passes = append(y.passes, ms(threadCPUTime()-c0))
}

// factor converts a time measured in this run into reference time.
func (y *yardstick) factor() float64 { return float64(yardRef) / float64(y.median()) }

// median is the run's median pass.
func (y *yardstick) median() time.Duration {
	return time.Duration(median(y.passes) * float64(time.Millisecond))
}

// kdBuild orders p as an implicit kd-tree: the median by the depth's
// axis in the middle, each half built the same way one level down.
func kdBuild(p [][2]float64, depth int) {
	if len(p) <= yardLeaf {
		return
	}
	d := depth % 2
	slices.SortFunc(p, func(a, b [2]float64) int {
		switch {
		case a[d] < b[d]:
			return -1
		case a[d] > b[d]:
			return 1
		}
		return 0
	})
	m := len(p) / 2
	kdBuild(p[:m], depth+1)
	kdBuild(p[m+1:], depth+1)
}

// kdSearch keeps in best the yardK smallest squared distances from q to
// the points of the implicit kd-tree p.
func kdSearch(p [][2]float64, depth int, q [2]float64, best *[yardK]float64) {
	if len(p) <= yardLeaf {
		for _, x := range p {
			dx, dy := x[0]-q[0], x[1]-q[1]
			kdInsert(best, dx*dx+dy*dy)
		}
		return
	}
	d := depth % 2
	m := len(p) / 2
	pv := p[m]
	dx, dy := pv[0]-q[0], pv[1]-q[1]
	kdInsert(best, dx*dx+dy*dy)
	diff := q[d] - pv[d]
	near, far := p[:m], p[m+1:]
	if diff > 0 {
		near, far = far, near
	}
	kdSearch(near, depth+1, q, best)
	if diff*diff < best[yardK-1] {
		kdSearch(far, depth+1, q, best)
	}
}

func kdInsert(best *[yardK]float64, d float64) {
	if d >= best[yardK-1] {
		return
	}
	j := yardK - 1
	for ; j > 0 && best[j-1] > d; j-- {
		best[j] = best[j-1]
	}
	best[j] = d
}
