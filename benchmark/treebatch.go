package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/heapx"
	"pimkd/internal/pim"
)

// treeBatchSize fixes the inputs of the tree-batch workload.
type treeBatchSize struct {
	n      int // base points
	p      int // PIM modules
	k      int // kNN k
	batch  int // queries per read batch and points per update batch
	checks int // sampled queries per read batch checked by brute force
	// modelPhases is how many leading phases the model_* metrics cover:
	// a fixed count, so they are a pure function of the seed.
	modelPhases int
}

var treeBatchFull = treeBatchSize{n: 100_000, p: 64, k: 10, batch: 2048, checks: 4, modelPhases: 32}

// treeRun is one built tree with the benchmark's own copy of its contents.
type treeRun struct {
	sz     treeBatchSize
	mach   *pim.Machine
	tree   *core.Tree
	live   *liveSet
	dens   *density
	rng    *rand.Rand
	nextID int32
}

// newTreeRun makes the base set from seed and the benchmark's record of
// it; build then makes the tree.
func newTreeRun(sz treeBatchSize, seed int64) *treeRun {
	rng := rand.New(rand.NewSource(seed))
	dens := newDensity()
	pts := dens.points(rng, sz.n)
	items := make([]core.Item, len(pts))
	for i, p := range pts {
		items[i] = core.Item{P: p, ID: int32(i)}
	}
	return &treeRun{sz: sz, live: newLiveSet(items), dens: dens, rng: rng, nextID: int32(sz.n)}
}

// build bulk-builds a fresh tree over the base set, replacing any earlier
// one, and returns the build's CPU time. The tree gets its own copy of
// the points, made before the clock starts.
func (tr *treeRun) build() time.Duration {
	tr.mach, tr.tree = nil, nil
	items := cloneItems(tr.live.items)
	forceGC()
	tr.mach = pim.NewMachine(tr.sz.p, 1<<22)
	tr.tree = core.New(core.Config{Dim: 2, Seed: programSeed}, tr.mach)
	c0 := cpuTime()
	tr.tree.Build(items)
	return cpuTime() - c0
}

// phaseTimes is the time of one phase's four batch calls.
type phaseTimes struct {
	knn, rng, ins, del time.Duration
}

func (a *phaseTimes) add(b phaseTimes) {
	a.knn += b.knn
	a.rng += b.rng
	a.ins += b.ins
	a.del += b.del
}

func (a phaseTimes) total() time.Duration { return a.knn + a.rng + a.ins + a.del }

// phase runs one kNN batch, one range batch, one insert batch and one
// delete batch of the same size, and returns the wall time and the
// process CPU time of each call. A hot phase packs every query of both
// read batches into one tiny square; otherwise queries are sampled from
// the data. Sampled answers are checked against brute-force scans outside
// the timed calls.
func (tr *treeRun) phase(hot bool, onCall func(kind string, d time.Duration)) (wall, cpu phaseTimes, err error) {
	sz := tr.sz
	qs := make([]geom.Point, sz.batch)
	centre := tr.live.items[tr.rng.Intn(len(tr.live.items))].P
	for i := range qs {
		if hot {
			qs[i] = hotSpot(tr.rng, centre)
		} else {
			qs[i] = tr.live.items[tr.rng.Intn(len(tr.live.items))].P.Clone()
			qs[i][0] = clamp01(qs[i][0] + 1e-4*tr.rng.NormFloat64())
			qs[i][1] = clamp01(qs[i][1] + 1e-4*tr.rng.NormFloat64())
		}
	}
	boxes := make([]geom.Box, sz.batch)
	for i := range boxes {
		if hot {
			boxes[i] = boxAt(hotSpot(tr.rng, centre))
		} else {
			boxes[i] = boxAt(tr.live.items[tr.rng.Intn(len(tr.live.items))].P)
		}
	}
	ins := make([]core.Item, sz.batch)
	for i := range ins {
		ins[i] = core.Item{P: tr.dens.point(tr.rng), ID: tr.nextID}
		tr.nextID++
	}

	timed := func(kind string, w, c *time.Duration, fn func()) {
		c0, start := cpuTime(), time.Now()
		fn()
		*w, *c = time.Since(start), cpuTime()-c0
		if onCall != nil {
			onCall(kind, *w)
		}
	}
	var knn [][]heapx.Candidate
	timed("knn", &wall.knn, &cpu.knn, func() { knn = tr.tree.KNN(qs, sz.k) })
	var rr [][]core.Item
	timed("range", &wall.rng, &cpu.rng, func() { rr = tr.tree.RangeReport(boxes) })
	for c := 0; c < sz.checks; c++ {
		i := tr.rng.Intn(sz.batch)
		if err := checkKNNExact(knn[i], tr.live.bruteKNN(qs[i], sz.k)); err != nil {
			return wall, cpu, fmt.Errorf("tree-batch query %d: %w", i, err)
		}
		j := tr.rng.Intn(sz.batch)
		if err := checkRangeExact(rr[j], tr.live.bruteRange(boxes[j])); err != nil {
			return wall, cpu, fmt.Errorf("tree-batch box %d: %w", j, err)
		}
	}

	timed("insert", &wall.ins, &cpu.ins, func() { tr.tree.BatchInsert(ins) })
	for _, it := range ins {
		tr.live.add(it)
	}
	del := make([]core.Item, sz.batch)
	for i := range del {
		del[i] = tr.live.items[tr.rng.Intn(len(tr.live.items))]
		tr.live.remove(del[i].ID)
	}
	timed("delete", &wall.del, &cpu.del, func() { tr.tree.BatchDelete(del) })
	if got := tr.tree.Size(); got != len(tr.live.items) {
		return wall, cpu, fmt.Errorf("tree-batch: Size() = %d, live set holds %d", got, len(tr.live.items))
	}
	return wall, cpu, nil
}

// runTreeBatch is the tree-batch workload: one caller, closed loop, whole
// rounds of a sampled phase then a hot phase until the run's time is spent.
//
// It runs on one P (GOMAXPROCS=1), so the work of a batch call is done by
// one thread and the call's process CPU time is the time it takes on a
// CPU of its own. The throughput and latency metrics come from CPU time:
// wall-clock figures of the same runs moved by half between runs on a
// shared host, with the other tenants' load.
func runTreeBatch(o options) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sz := treeBatchFull
	if o.toy {
		sz = treeBatchSize{n: 4000, p: 16, k: 10, batch: 128, checks: 4, modelPhases: 2}
	}
	out := newOutcome()
	var builds []time.Duration
	y := newYardstick()
	tr := newTreeRun(sz, o.seed)
	// The heap the inputs and the live-set record take, so that
	// live_heap_mb counts only the tree.
	heapBase := forceGC()
	reps := 9
	if o.toy {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		y.run()
		builds = append(builds, tr.build())
	}
	out.e2e["live_heap_mb"] = forceGC() - heapBase

	var obs *roundObs
	calls := map[string][]time.Duration{}
	var onCall func(string, time.Duration)
	if o.trace {
		obs = &roundObs{}
		tr.mach.SetObserver(obs)
		onCall = func(kind string, d time.Duration) { calls[kind] = append(calls[kind], d) }
	}

	// From here the collector runs only between phases, outside the
	// timed calls: a collection that lands inside a call doubled that
	// call's time, so the same inputs read up to 10% apart between runs.
	// The calls' allocation still costs what allocating costs; the
	// traced run's runtime.* metrics give its volume.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Warm-up: one round, unmeasured.
	for _, hot := range []bool{false, true} {
		if _, _, err := tr.phase(hot, nil); err != nil {
			return nil, err
		}
		runtime.GC()
	}

	var (
		wallSum, cpuSum     phaseTimes
		phases              int
		readCPU, writeCPU   []float64
		modelBase, modelEnd pim.Stats
		obsBase             roundObsTotals
	)
	opsPerPhase := int64(4 * sz.batch)
	rt0 := readRuntime()
	modelBase = tr.mach.Stats()
	if obs != nil {
		obsBase = obs.totals()
	}
	start := time.Now()
	for phases < sz.modelPhases || time.Since(start) < o.seconds {
		y.run()
		var round phaseTimes
		for _, hot := range []bool{false, true} {
			wall, cpu, err := tr.phase(hot, onCall)
			if err != nil {
				return nil, err
			}
			runtime.GC()
			wallSum.add(wall)
			round.add(cpu)
			phases++
			if phases == sz.modelPhases {
				modelEnd = tr.mach.Stats()
			}
		}
		cpuSum.add(round)
		readCPU = append(readCPU, ms(round.knn+round.rng)/4)
		writeCPU = append(writeCPU, ms(round.ins+round.del)/4)
	}
	rt1 := readRuntime()
	if err := tr.tree.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("tree-batch: CheckInvariants: %w", err)
	}

	// Throughputs are the measured calls' operations over their CPU time;
	// the latencies are medians over rounds of the mean CPU time of a read
	// (write) batch call, which is how long each of the batch's queries
	// (points) waits for its answer on a CPU of its own. All of these
	// times, and set-up's, are in reference seconds.
	f := y.factor()
	b := float64(phases * sz.batch)
	out.e2e["setup_s"] = f * median(durSeconds(builds))
	out.e2e["knn_per_cpu_s"] = b / (f * cpuSum.knn.Seconds())
	out.e2e["range_per_cpu_s"] = b / (f * cpuSum.rng.Seconds())
	out.e2e["update_per_cpu_s"] = 2 * b / (f * (cpuSum.ins + cpuSum.del).Seconds())
	out.e2e["ops_per_cpu_s"] = 4 * b / (f * cpuSum.total().Seconds())
	out.e2e["read_p50_ms"] = f * median(readCPU)
	out.e2e["write_p50_ms"] = f * median(writeCPU)
	model := modelEnd.Sub(modelBase)
	modelOps := float64(int64(sz.modelPhases) * opsPerPhase)
	out.e2e["model_comm_words_per_op"] = float64(model.Communication) / modelOps
	out.e2e["model_comm_time_per_op"] = float64(model.CommTime) / modelOps
	out.e2e["model_pim_time_per_op"] = float64(model.PIMTime) / modelOps
	for _, kind := range []string{"knn", "range", "insert", "delete"} {
		out.attempt(kind, int64(phases*sz.batch))
	}
	out.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.info["yardstick_ms"] = ms(y.median())
	out.info["phases"] = phases
	out.info["model_phases"] = sz.modelPhases
	out.info["model_stats"] = model
	// Wall-clock rates of the same calls, for reference: ungated.
	out.info["wall_per_s"] = map[string]float64{
		"knn":    b / wallSum.knn.Seconds(),
		"range":  b / wallSum.rng.Seconds(),
		"update": 2 * b / (wallSum.ins + wallSum.del).Seconds(),
		"ops":    4 * b / wallSum.total().Seconds(),
	}

	if obs != nil {
		ops := int64(phases) * opsPerPhase
		totals := obs.totals().sub(obsBase)
		if err := totals.matches(tr.mach.Stats().Sub(modelBase)); err != nil {
			return nil, fmt.Errorf("tree-batch: %w", err)
		}
		callWall := wallSum.total()
		out.layer["core.build_s"] = out.e2e["setup_s"]
		out.layer["pim.rounds_per_op"] = float64(totals.stats.Rounds) / float64(ops)
		out.layer["pim.round_wall_us"] = us(totals.wall) / float64(totals.records)
		out.layer["pim.round_wall_frac"] = totals.wall.Seconds() / callWall.Seconds()
		out.layer["core.knn_batch_ms"] = meanMS(calls["knn"])
		out.layer["core.range_batch_ms"] = meanMS(calls["range"])
		out.layer["core.insert_batch_ms"] = meanMS(calls["insert"])
		out.layer["core.delete_batch_ms"] = meanMS(calls["delete"])
		out.layer["core.host_frac"] = 1 - totals.wall.Seconds()/callWall.Seconds()
		runtimeMetrics(rt0, rt1, ops, out.layer)
		if err := traceServingFixture(o, out.layer); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// servingFixture is the small durable service tree-batch's traced run
// measures the serving layers on, since the workload itself calls the
// tree directly.
var servingFixture = openSpec{name: "tree-batch-serving", n: 20000, p: 64, refRate: 500, boot: bootServe}

// traceServingFixture fills the serve, persist, HTTP and shard metrics of
// tree-batch's traced run, and the direct round and log probes, from a
// short reference window on the serving fixture.
func traceServingFixture(o options, layer map[string]float64) error {
	sp := servingFixture
	if o.toy {
		sp.n, sp.refRate = 3000, 250
	}
	g := newLoadGen(o.seed, sp.n)
	sys, bl, dir, err := bootTraced(sp, o, g)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer sys.close()
	r := newRunner(sys.front, g.hist)
	fixture := map[string]float64{}
	if _, _, err := traceServing(sp, o, g, sys, bl, r, min(2*time.Second, o.seconds/2), fixture); err != nil {
		return err
	}
	scratch := newOutcome()
	if err := finishOpen(sp, g, sys, r, scratch); err != nil {
		return err
	}
	for name, v := range fixture {
		if servingLayers(name) {
			layer[name] = v
		}
	}
	layer["pim.empty_round_us"] = emptyRoundUS(sp.p)
	v, err := logBatchUS(filepath.Join(dir, "logprobe"))
	if err != nil {
		return err
	}
	layer["persist.log_batch_us"] = v
	return nil
}

func meanMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return mean(xs)
}
