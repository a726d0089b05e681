package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pimkd/internal/geom"
	"pimkd/internal/serve"
	"pimkd/internal/shard"
)

// traceOpen is the traced run of an open-loop workload: one reference
// window through the HTTP front door with every hook read, then direct
// calls into each layer. Its answers are checked like an untraced run's.
func traceOpen(sp openSpec, o options) (*outcome, error) {
	out := newOutcome()
	g := newLoadGen(o.seed, sp.n)
	sys, bl, dir, err := bootTraced(sp, o, g)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer sys.close()
	r := newRunner(sys.front, g.hist)
	if _, err := r.window(g, sp.refRate, warmDur); err != nil {
		return nil, err
	}
	sizes, w, err := traceServing(sp, o, g, sys, bl, r, o.seconds/2, out.layer)
	if err != nil {
		return nil, err
	}
	// The window's latencies with every hook on, against the untraced
	// runs' reference window: the tracing overhead.
	out.e2e["read_p50_ms"] = median(w.latencies(true))
	out.e2e["write_p50_ms"] = median(w.latencies(false))
	if err := finishOpen(sp, g, sys, r, out); err != nil {
		return nil, err
	}
	coreProbe(g.base, sp.p, o.seed, sizes, out.layer)
	out.layer["pim.empty_round_us"] = emptyRoundUS(sp.p)
	v, err := logBatchUS(filepath.Join(dir, "logprobe"))
	if err != nil {
		return nil, err
	}
	out.layer["persist.log_batch_us"] = v
	return out, nil
}

// bootTraced boots sp with its batch records collected. A single service
// also gets a shard listener and a one-shard router in front of it, so
// the wire and router probes have something to call.
func bootTraced(sp openSpec, o options, g *loadGen) (*openSystem, *batchLog, string, error) {
	bl := &batchLog{}
	dir := filepath.Join(o.workDir, fmt.Sprintf("%s-trace-%d", sp.name, os.Getpid()))
	sys, err := sp.boot(sp, g.base, dir, bl.hook)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	if sys.router == nil {
		if err := attachRouter(sys); err != nil {
			sys.close()
			os.RemoveAll(dir)
			return nil, nil, "", err
		}
	}
	return sys, bl, dir, nil
}

func attachRouter(sys *openSystem) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sl := serve.NewShardListener(sys.services[0], ln, nil, nil)
	part, err := shard.NewUniformPartition(2, 1, universe())
	if err != nil {
		sl.Close()
		return err
	}
	rt, err := shard.NewRouter(part, []string{ln.Addr().String()}, shard.Config{Replication: 1})
	if err != nil {
		sl.Close()
		return err
	}
	inner := sys.close
	sys.router, sys.addrs = rt, []string{ln.Addr().String()}
	sys.close = func() {
		rt.Close()
		sl.Close()
		inner()
	}
	return nil
}

// traceServing measures the serving layers over one reference window
// through sys's HTTP front door, then with direct calls. It returns the
// window's mean batch size per kind, for the core probe, and the window.
func traceServing(sp openSpec, o options, g *loadGen, sys *openSystem, bl *batchLog, r *runner, dur time.Duration, out map[string]float64) (map[string]int, *windowResult, error) {
	obs := make([]*roundObs, len(sys.machines))
	for i, m := range sys.machines {
		obs[i] = &roundObs{}
		m.SetObserver(obs[i])
	}
	obsTotals := func() roundObsTotals {
		var t roundObsTotals
		for _, ob := range obs {
			t = t.add(ob.totals())
		}
		return t
	}
	_, clustered := sys.api.(routerTarget)
	forceGC()
	t0, m0 := obsTotals(), machineStats(sys.machines)
	a0, c0 := persistTotals(sys.stores)
	rm0 := sys.router.Metrics()
	rt0 := readRuntime()
	bl.start()
	start := time.Now()
	w, err := r.window(g, sp.refRate, dur)
	if err != nil {
		return nil, nil, err
	}
	wall := time.Since(start)
	recs := bl.stop()
	rt1 := readRuntime()
	t := obsTotals().sub(t0)
	if err := t.matches(machineStats(sys.machines).Sub(m0)); err != nil {
		return nil, nil, err
	}
	var ops, reads, writes int64
	for k := opKind(0); k < numOpKinds; k++ {
		n := int64(w.completed(k))
		ops += n
		if k.read() {
			reads += n
		} else {
			writes += n
		}
	}
	out["pim.rounds_per_op"] = float64(t.stats.Rounds) / float64(ops)
	out["pim.round_wall_us"] = us(t.wall) / float64(max(t.records, 1))
	out["pim.round_wall_frac"] = t.wall.Seconds() / wall.Seconds()
	runtimeMetrics(rt0, rt1, ops, out)
	walBytes, sizes := serveLayer(recs, out)
	a1, c1 := persistTotals(sys.stores)
	out["persist.appends_per_write"] = float64(a1-a0) / float64(writes)
	out["persist.wal_bytes_per_write"] = float64(walBytes) / float64(writes)
	out["persist.checkpoints"] = float64(c1 - c0)

	// Direct calls, one at a time. The HTTP and API reads alternate so both
	// see the same conditions; their difference is the front door's own
	// time.
	n := 300
	if o.toy {
		n = 30
	}
	var routerReads, routerOps int64
	if clustered {
		routerReads, routerOps = reads, ops
	}
	q := func(i int) geom.Point { return g.base[(i*7919)%len(g.base)].P }
	var httpLat, apiLat []float64
	for i := 0; i < n; i++ {
		for _, tg := range []target{sys.front, sys.api} {
			start := time.Now()
			if _, err := tg.knn(q(i), openK); err != nil {
				return nil, nil, fmt.Errorf("probe read: %w", err)
			}
			d := us(time.Since(start))
			if tg == sys.front {
				httpLat = append(httpLat, d)
			} else {
				apiLat = append(apiLat, d)
			}
		}
	}
	out["http.self_us"] = median(httpLat) - median(apiLat)
	if clustered {
		routerReads += int64(n)
		routerOps += int64(n)
		out["shard.router_read_p50_ms"] = median(apiLat) / 1000
		svc := serviceTarget{sys.services[0]}
		d, err := timedP50(n, func(i int) error { _, err := svc.knn(q(i), openK); return err })
		if err != nil {
			return nil, nil, err
		}
		out["serve.api_read_p50_ms"] = ms(d)
	} else {
		out["serve.api_read_p50_ms"] = median(apiLat) / 1000
		rt := routerTarget{sys.router}
		d, err := timedP50(n, func(i int) error { _, err := rt.knn(q(i), openK); return err })
		if err != nil {
			return nil, nil, err
		}
		routerReads += int64(n)
		routerOps += int64(n)
		out["shard.router_read_p50_ms"] = ms(d)
	}
	cl := shard.NewClient(sys.addrs[0], 2)
	defer cl.Close()
	d, err := timedP50(n, func(i int) error {
		_, err := cl.KNN(context.Background(), []geom.Point{q(i)}, openK)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("probe client: %w", err)
	}
	out["shard.client_rtt_us"] = us(d)
	rm1 := sys.router.Metrics()
	out["shard.calls_per_read"] = float64(rm1.ShardCalls-rm0.ShardCalls) / float64(routerReads)
	out["shard.pruned_per_read"] = float64(rm1.Pruned-rm0.Pruned) / float64(routerReads)
	out["shard.wire_bytes_per_op"] = float64(rm1.WireBytesOut+rm1.WireBytesIn-rm0.WireBytesOut-rm0.WireBytesIn) / float64(routerOps)
	out["shard.hedges"] = float64(rm1.Hedges - rm0.Hedges)
	return sizes, w, nil
}

// servingLayers reports whether a per-layer metric belongs to the serving
// layers (serve, persist, HTTP, shard) that tree-batch measures on a
// serving fixture of its own.
func servingLayers(name string) bool {
	for _, p := range []string{"serve.", "persist.", "http.", "shard."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
