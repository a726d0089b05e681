package main

import (
	"math"
	"math/rand"

	"pimkd/internal/core"
	"pimkd/internal/geom"
)

// The benchmark makes every input itself from the workload seed, so a
// change to the program's own generators cannot change what is measured.

// density is a fixed mixture: 40% uniform background plus 60% spread over
// 32 Gaussian clusters whose widths differ by 8×, so the data has dense
// and sparse regions side by side. The layout is the same for every
// workload seed, which only picks the points drawn from it: the seed then
// moves the figures little.
type density struct {
	centres [][2]float64
	sigmas  []float64
}

func newDensity() *density {
	rng := rand.New(rand.NewSource(20250601))
	d := &density{}
	for i := 0; i < 32; i++ {
		d.centres = append(d.centres, [2]float64{0.1 + 0.8*rng.Float64(), 0.1 + 0.8*rng.Float64()})
		d.sigmas = append(d.sigmas, 0.01*math.Pow(2, float64(i%4)))
	}
	return d
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x >= 1 {
		return math.Nextafter(1, 0)
	}
	return x
}

// point draws one point of the mixture inside the unit square.
func (d *density) point(rng *rand.Rand) geom.Point {
	if rng.Float64() < 0.4 {
		return geom.Point{rng.Float64(), rng.Float64()}
	}
	c := rng.Intn(len(d.centres))
	s := d.sigmas[c]
	return geom.Point{
		clamp01(d.centres[c][0] + s*rng.NormFloat64()),
		clamp01(d.centres[c][1] + s*rng.NormFloat64()),
	}
}

func (d *density) points(rng *rand.Rand, n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = d.point(rng)
	}
	return out
}

// rangeSide is the side of every range-report box: under one background
// point per box, about a hundred at the centre of the densest cluster.
const rangeSide = 0.003

// boxAt returns the rangeSide box centred on p, clipped to the unit square.
func boxAt(p geom.Point) geom.Box {
	lo := geom.Point{clamp01(p[0] - rangeSide/2), clamp01(p[1] - rangeSide/2)}
	hi := geom.Point{clamp01(p[0] + rangeSide/2), clamp01(p[1] + rangeSide/2)}
	return geom.Box{Lo: lo, Hi: hi}
}

// hotSpot returns a point inside a square of side 1e-3 around centre: the
// tiny subspace a hot-spot batch is packed into.
func hotSpot(rng *rand.Rand, centre geom.Point) geom.Point {
	return geom.Point{
		clamp01(centre[0] + 1e-3*(rng.Float64()-0.5)),
		clamp01(centre[1] + 1e-3*(rng.Float64()-0.5)),
	}
}

// universe returns the box covering every generated point.
func universe() geom.Box {
	return geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}}
}

// cloneItems copies items and their points, so the program owns every
// byte of what it is given.
func cloneItems(items []core.Item) []core.Item {
	out := make([]core.Item, len(items))
	for i, it := range items {
		out[i] = core.Item{P: it.P.Clone(), ID: it.ID}
	}
	return out
}
