package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/persist"
	"pimkd/internal/pim"
	"pimkd/internal/serve"
	"pimkd/internal/shard"
)

// openSpec fixes the inputs of an open-loop workload. The rate, the
// callers and the latency limit are constants: none follows from a figure
// a run measures.
type openSpec struct {
	name    string
	n       int     // base points
	p       int     // PIM modules per machine
	refRate float64 // Poisson arrivals/s of the reference window
	// callers is the number of closed-loop callers of the capacity windows:
	// enough to keep the program saturated, few enough that read p99 stays
	// under limitMS there.
	callers int
	// limitMS is the read p99 the capacity windows must stay under; a run
	// whose capacity windows go over it fails and reports nothing.
	limitMS float64
	// satRate is the rate the capacity windows' request list is drawn at:
	// high enough that the writes' callers do not use up their share of
	// it in a 30 s run (should they, the write turns stop and the figures
	// still count), and low enough that the list does not run out of base
	// points to delete.
	satRate float64
	setups  int // set-ups per run, setup_s being their median
	boot    func(sp openSpec, base []core.Item, dir string, onBatch func(serve.BatchRecord)) (*openSystem, error)
}

// warmDur is the unmeasured warm-up at the reference rate.
const warmDur = time.Second

var serveOpen = openSpec{name: "serve-open", n: 65536, p: 64, refRate: 500, callers: 64, limitMS: 100, satRate: 24000, setups: 5, boot: bootServe}
var clusterOpen = openSpec{name: "cluster-open", n: 65536, p: 16, refRate: 250, callers: 64, limitMS: 100, satRate: 16000, setups: 3, boot: bootCluster}

// openSystem is a booted program: its HTTP front door, its public Go API,
// and the pieces the traced run reads.
type openSystem struct {
	front    target
	api      target
	machines []*pim.Machine
	services []*serve.Service
	stores   []*persist.Store
	router   *shard.Router
	addrs    []string
	close    func()
}

// programSeed is the seed of the program's own randomness (tree sampling,
// counters, placement; the service's record sampling): pimkd-server's
// default, the same in every run. The workload seed drives only the
// inputs, which is all the program receives from it.
const programSeed = 1

// openDurable opens a fresh store in dir, bulk-loads base into its tree
// and checkpoints it (as pimkd-server does on a fresh data directory), and
// wraps the tree in a durable service with the server's defaults: fsync
// off, a checkpoint every 256 write batches.
func openDurable(dir string, p int, base []core.Item, onBatch func(serve.BatchRecord)) (*serve.Service, *persist.Store, *pim.Machine, error) {
	mach := pim.NewMachine(p, 1<<22)
	store, tree, _, err := persist.Open(dir, persist.Options{Machine: mach, Tree: core.Config{Dim: 2, Seed: programSeed}})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open store: %w", err)
	}
	if len(base) > 0 {
		tree.Build(cloneItems(base))
		if err := store.Checkpoint(tree); err != nil {
			store.Close()
			return nil, nil, nil, fmt.Errorf("initial checkpoint: %w", err)
		}
	}
	return serve.New(serve.Config{Seed: programSeed, Persist: store, OnBatch: onBatch}, tree), store, mach, nil
}

// bootServe is store open plus bulk load of one durable service.
func bootServe(sp openSpec, base []core.Item, dir string, onBatch func(serve.BatchRecord)) (*openSystem, error) {
	svc, store, mach, err := openDurable(dir, sp.p, base, onBatch)
	if err != nil {
		return nil, err
	}
	return &openSystem{
		front:    httpTarget{serve.NewHandler(svc)},
		api:      serviceTarget{svc},
		machines: []*pim.Machine{mach},
		services: []*serve.Service{svc},
		stores:   []*persist.Store{store},
		close: func() {
			svc.Close()
			store.Close()
		},
	}, nil
}

// clusterShards and clusterReplication shape the cluster workload.
const (
	clusterShards      = 3
	clusterReplication = 2
)

// bootCluster starts durable shards on loopback listeners, a router over
// them with its defaults (probes, checksum sweep; rebalancer off), and
// bulk-loads the base set through the router until every cell is covered.
func bootCluster(sp openSpec, base []core.Item, dir string, onBatch func(serve.BatchRecord)) (*openSystem, error) {
	sys := &openSystem{}
	var listeners []*serve.ShardListener
	sys.close = func() {
		if sys.router != nil {
			sys.router.Close()
		}
		for _, ln := range listeners {
			ln.Close()
		}
		for _, svc := range sys.services {
			svc.Close()
		}
		for _, st := range sys.stores {
			st.Close()
		}
	}
	for j := 0; j < clusterShards; j++ {
		svc, store, mach, err := openDurable(filepath.Join(dir, fmt.Sprintf("shard%d", j)), sp.p, nil, onBatch)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.services = append(sys.services, svc)
		sys.stores = append(sys.stores, store)
		sys.machines = append(sys.machines, mach)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, err
		}
		listeners = append(listeners, serve.NewShardListener(svc, ln, nil, nil))
		sys.addrs = append(sys.addrs, ln.Addr().String())
	}
	part, err := shard.NewUniformPartition(2, clusterShards, universe())
	if err != nil {
		sys.close()
		return nil, err
	}
	router, err := shard.NewRouter(part, sys.addrs, shard.Config{Replication: clusterReplication})
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.router = router
	const chunk = 4096
	for i := 0; i < len(base); i += chunk {
		items := base[i:min(i+chunk, len(base))]
		n, err := router.BatchUpdate(context.Background(), false, items)
		if err != nil || n != len(items) {
			sys.close()
			return nil, fmt.Errorf("bulk load: %d of %d acked: %v", n, len(items), err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		covered := true
		for _, c := range router.Cells() {
			covered = covered && c.ActingPrimary >= 0
		}
		if covered {
			break
		}
		if time.Now().After(deadline) {
			sys.close()
			return nil, fmt.Errorf("cells not covered 10s after bulk load")
		}
	}
	sys.front = httpTarget{shard.NewHandler(router)}
	sys.api = routerTarget{router}
	return sys, nil
}

func machineStats(ms []*pim.Machine) pim.Stats {
	var s pim.Stats
	for _, m := range ms {
		s = s.Add(m.Stats())
	}
	return s
}

// runOpen is an open-loop workload: set-up, a warm-up, the reference
// window for half the run, the capacity windows for the other half, then
// the final-state check and the read checks.
func runOpen(sp openSpec, o options) (*outcome, error) {
	if o.toy {
		sp.n = 3000
		sp.refRate /= 4
		sp.callers /= 4
		sp.satRate = 1500
	}
	if o.trace {
		return traceOpen(sp, o)
	}
	out := newOutcome()
	g := newLoadGen(o.seed, sp.n)
	y := newYardstick()
	var sys *openSystem
	var dir string
	var setups []time.Duration
	reps := sp.setups
	if o.toy {
		reps = 1
	}
	// The heap the inputs and the benchmark's own records take, so that
	// live_heap_mb counts only what set-up adds.
	heapBase := forceGC()
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
			os.RemoveAll(dir)
		}
		forceGC()
		dir = filepath.Join(o.workDir, fmt.Sprintf("%s-%d-%d", sp.name, os.Getpid(), i))
		y.run()
		c0 := cpuTime()
		var err error
		if sys, err = sp.boot(sp, g.base, dir, nil); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		setups = append(setups, cpuTime()-c0)
	}
	defer os.RemoveAll(dir)
	defer sys.close()
	out.e2e["live_heap_mb"] = forceGC() - heapBase

	r := newRunner(sys.front, g.hist)
	if _, err := r.window(g, sp.refRate, warmDur); err != nil {
		return nil, err
	}
	forceGC()

	refDur := o.seconds / 2
	ref, err := r.window(g, sp.refRate, refDur)
	if err != nil {
		return nil, err
	}
	reads, writes := ref.latencies(true), ref.latencies(false)
	out.e2e["read_p50_ms"] = median(reads)
	out.e2e["write_p50_ms"] = median(writes)
	tails := map[string]any{"reads": len(reads), "writes": len(writes)}
	if v, ok := quantile(reads, 0.99); ok {
		tails["read_p99_ms"] = v
	}
	if v, ok := quantile(writes, 0.99); ok {
		tails["write_p99_ms"] = v
	}
	late := ref.lateness()
	tails["late_p50_ms"] = median(late)
	if v, ok := quantile(late, 0.99); ok {
		tails["late_p99_ms"] = v
	}
	out.info["reference"] = tails

	// The capacity windows: the program is offered all it can serve by a
	// fixed number of closed-loop callers, so the backlog cannot grow past
	// them, with one class of request at a time (kNN, range, writes) in
	// turn, so the process CPU time each class takes is known. Each
	// class's capacity is its completions per CPU-second, in reference
	// seconds; the run fails if read p99 there goes over the limit.
	forceGC()
	satDur := o.seconds - refDur
	ops, err := g.schedule(sp.satRate, satDur+time.Second)
	if err != nil {
		return nil, err
	}
	m0 := machineStats(sys.machines)
	cp := r.capacity(ops, sp.callers, satDur, y)
	model := machineStats(sys.machines).Sub(m0)
	// Set-up's CPU time and the capacity windows' are in reference
	// seconds, scaled by every yardstick pass of the run.
	f := y.factor()
	out.e2e["setup_s"] = f * median(durSeconds(setups))
	var cpu [numClasses]float64
	var cpuPerOp float64
	for c, share := range classShares {
		cpu[c] = f * cp.cpu[c].Seconds()
		cpuPerOp += share * cpu[c] / float64(cp.done[c])
	}
	out.e2e["knn_per_cpu_s"] = float64(cp.done[classKNN]) / cpu[classKNN]
	out.e2e["range_per_cpu_s"] = float64(cp.done[classRange]) / cpu[classRange]
	out.e2e["update_per_cpu_s"] = float64(cp.done[classWrite]) / cpu[classWrite]
	out.e2e["ops_per_cpu_s"] = 1 / cpuPerOp
	done := float64(cp.done[classKNN] + cp.done[classRange] + cp.done[classWrite])
	out.e2e["model_comm_words_per_op"] = float64(model.Communication) / done
	out.e2e["model_comm_time_per_op"] = float64(model.CommTime) / done
	out.e2e["model_pim_time_per_op"] = float64(model.PIMTime) / done
	capInfo := map[string]any{"callers": sp.callers, "limit_ms": sp.limitMS, "slices": cp.slices,
		"done": cp.done, "ref_cpu_s": cpu, "yardstick_ms": ms(y.median()),
		"wall_per_s": [numClasses]float64{
			float64(cp.done[0]) / cp.wall[0].Seconds(),
			float64(cp.done[1]) / cp.wall[1].Seconds(),
			float64(cp.done[2]) / cp.wall[2].Seconds(),
		}}
	p99, ok := quantile(cp.reads, 0.99)
	switch {
	case ok && p99 > sp.limitMS:
		return nil, fmt.Errorf("%s capacity windows: read p99 %.1f ms over the %.0f ms limit", sp.name, p99, sp.limitMS)
	case !ok && !o.toy:
		// A toy window is too short for a p99; a full one never is.
		return nil, fmt.Errorf("%s capacity windows: too few reads for a p99", sp.name)
	}
	if ok {
		capInfo["read_p99_ms"] = p99
	}
	out.info["capacity"] = capInfo

	if err := finishOpen(sp, g, sys, r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// window sends one Poisson window of the seeded stream at rate. A window
// that had to stop launching requests is an error: its latencies would
// come from the part of the window before the program stalled.
func (r *runner) window(g *loadGen, rate float64, dur time.Duration) (*windowResult, error) {
	ops, err := g.schedule(rate, dur)
	if err != nil {
		return nil, err
	}
	// Reference windows run far below capacity and never near this; it
	// only bounds the goroutines should the program stall.
	maxInflight := int64(rate) + 64
	w := r.run(ops, dur, maxInflight)
	if w.aborted {
		return nil, fmt.Errorf("window at %.0f req/s stopped: more than %d requests in flight", rate, maxInflight)
	}
	return w, nil
}

// finishOpen runs once the load has stopped: the full box must hold
// exactly the base set plus acknowledged inserts minus acknowledged
// deletes, and every read must pass its checks. It also tallies the
// run's requests.
func finishOpen(sp openSpec, g *loadGen, sys *openSystem, r *runner, out *outcome) error {
	final, err := sys.front.rangeq(universe())
	out.attempt("range", 1)
	if err != nil {
		out.failed["range"]++
		return fmt.Errorf("%s final range: %w", sp.name, err)
	}
	if err := g.hist.checkFinal(final); err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	if err := r.checkAll(); err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	for _, w := range r.all {
		w.count(out.attempted, out.failed)
	}
	if err := r.firstError(); err != nil {
		out.info["first_error"] = err.Error()
	}
	return nil
}
