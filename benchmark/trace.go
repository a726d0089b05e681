package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/persist"
	"pimkd/internal/pim"
	"pimkd/internal/serve"
)

// roundObs is the traced run's pim.Observer: it totals every finished BSP
// round so the per-round records can be checked against Machine.Stats and
// turned into the pim layer's metrics.
type roundObs struct {
	mu sync.Mutex
	t  roundObsTotals
}

type roundObsTotals struct {
	records int64
	wall    time.Duration
	stats   pim.Stats
}

func (o *roundObs) ObserveRound(rec pim.RoundRecord) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.t.records++
	o.t.wall += rec.Wall
	o.t.stats = o.t.stats.Add(pim.Stats{
		PIMWork:       rec.TotalWork,
		PIMTime:       rec.MaxWork,
		Communication: rec.TotalComm,
		CommTime:      rec.MaxComm,
		Rounds:        rec.Rounds,
	})
}

func (o *roundObs) totals() roundObsTotals {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.t
}

func (t roundObsTotals) sub(o roundObsTotals) roundObsTotals {
	return roundObsTotals{records: t.records - o.records, wall: t.wall - o.wall, stats: t.stats.Sub(o.stats)}
}

func (t roundObsTotals) add(o roundObsTotals) roundObsTotals {
	return roundObsTotals{records: t.records + o.records, wall: t.wall + o.wall, stats: t.stats.Add(o.stats)}
}

// matches checks that the per-round totals equal the machine's own meters
// over the same window, field by field for every quantity rounds carry.
func (t roundObsTotals) matches(delta pim.Stats) error {
	s := t.stats
	if s.PIMWork != delta.PIMWork || s.PIMTime != delta.PIMTime || s.Communication != delta.Communication ||
		s.CommTime != delta.CommTime || s.Rounds != delta.Rounds {
		return fmt.Errorf("observer totals %v differ from the Machine.Stats delta %v", s, delta)
	}
	return nil
}

// batchLog collects the serve layer's per-batch records through
// serve.Config.OnBatch, from every executor of a system.
type batchLog struct {
	mu   sync.Mutex
	on   bool
	recs []serve.BatchRecord
}

func (b *batchLog) hook(rec serve.BatchRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.on {
		b.recs = append(b.recs, rec)
	}
}

func (b *batchLog) start() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.on, b.recs = true, nil
}

func (b *batchLog) stop() []serve.BatchRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.on = false
	return b.recs
}

// requestKinds are the batch kinds the workloads' requests ride in.
var requestKinds = []string{"knn", "range", "insert", "delete"}

// serveLayer turns a window's batch records into the serve layer's
// metrics and the bytes those write batches appended to the WAL.
func serveLayer(recs []serve.BatchRecord, out map[string]float64) (walBytes int64, sizes map[string]int) {
	reqs, batches := map[string]int{}, map[string]int{}
	var lingers []float64
	var full, all, comm, n int64
	for _, rec := range recs {
		if !slices.Contains(requestKinds, rec.Kind) {
			continue
		}
		reqs[rec.Kind] += rec.Size
		batches[rec.Kind]++
		lingers = append(lingers, ms(rec.Linger))
		all++
		if rec.SealedBy == "full" {
			full++
		}
		comm += rec.Cost.Communication
		n += int64(rec.Size)
		if rec.Kind == "insert" || rec.Kind == "delete" {
			walBytes += int64(len(persist.EncodeWALRecord(persist.WALRecord{Items: make([]core.Item, rec.Size)}, 2)))
		}
	}
	sizes = map[string]int{}
	for _, k := range requestKinds {
		mean := 0.0
		if batches[k] > 0 {
			mean = float64(reqs[k]) / float64(batches[k])
		}
		out["serve.batch_size_mean."+k] = mean
		sizes[k] = max(1, int(mean+0.5))
	}
	out["serve.linger_ms_p50"] = median(lingers)
	out["serve.sealed_full_frac"] = float64(full) / float64(max(all, 1))
	out["serve.model_comm_words_per_req"] = float64(comm) / float64(max(n, 1))
	return walBytes, sizes
}

func persistTotals(stores []*persist.Store) (appends, ckpts uint64) {
	for _, st := range stores {
		s := st.Status()
		appends += s.Appends
		ckpts += s.CheckpointsWritten
	}
	return appends, ckpts
}

// timedP50 calls fn n times in a row and returns the median call time.
func timedP50(n int, fn func(i int) error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}

// emptyRoundUS times BSP rounds in which every module runs an empty
// program: the fixed cost a batch pays per round whatever its size.
func emptyRoundUS(p int) float64 {
	mach := pim.NewMachine(p, 1<<22)
	const n = 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		mach.RunRound(func(r *pim.Round) { r.OnModules(func(*pim.ModuleCtx) {}) })
	}
	return us(time.Since(start)) / n
}

// logBatchUS times single-item LogBatch appends on a scratch store with
// the server's default (no fsync).
func logBatchUS(dir string) (float64, error) {
	defer os.RemoveAll(dir)
	store, _, _, err := persist.Open(dir, persist.Options{Machine: pim.NewMachine(1, 1<<10), Tree: core.Config{Dim: 2}})
	if err != nil {
		return 0, err
	}
	defer store.Close()
	const n = 2000
	items := []core.Item{{P: geom.Point{0.5, 0.5}, ID: 1}}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := store.LogBatch(persist.OpInsert, items); err != nil {
			return 0, err
		}
	}
	return us(time.Since(start)) / n, nil
}

// coreProbe builds a scratch tree over base and times core batch calls of
// the given sizes per kind: the tree work behind a serving workload's
// batches, without the executor around it.
func coreProbe(base []core.Item, p int, seed int64, sizes map[string]int, out map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	mach := pim.NewMachine(p, 1<<22)
	tree := core.New(core.Config{Dim: 2, Seed: programSeed}, mach)
	start := time.Now()
	tree.Build(append([]core.Item(nil), base...))
	out["core.build_s"] = time.Since(start).Seconds()
	obs := &roundObs{}
	mach.SetObserver(obs)
	const reps = 40
	var calls time.Duration
	timed := func(name string, fn func()) {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		d := time.Since(start)
		calls += d
		out["core."+name+"_batch_ms"] = ms(d) / reps
	}
	pick := func() geom.Point { return base[rng.Intn(len(base))].P }
	timed("knn", func() {
		qs := make([]geom.Point, sizes["knn"])
		for i := range qs {
			qs[i] = pick()
		}
		tree.KNN(qs, openK)
	})
	timed("range", func() {
		boxes := make([]geom.Box, sizes["range"])
		for i := range boxes {
			boxes[i] = boxAt(pick())
		}
		tree.RangeReport(boxes)
	})
	nextID := int32(len(base))
	var inserted []core.Item
	timed("insert", func() {
		items := make([]core.Item, sizes["insert"])
		for i := range items {
			items[i] = core.Item{P: hotSpot(rng, pick()), ID: nextID}
			nextID++
		}
		inserted = append(inserted, items...)
		tree.BatchInsert(items)
	})
	timed("delete", func() {
		n := min(sizes["delete"], len(inserted))
		tree.BatchDelete(inserted[:n])
		inserted = inserted[n:]
	})
	out["core.host_frac"] = 1 - obs.totals().wall.Seconds()/calls.Seconds()
}
