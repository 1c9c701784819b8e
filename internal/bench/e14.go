package bench

import (
	"fmt"
	gort "runtime"
	"sync"
	"time"

	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/stats"
)

// ShardedSinkRate measures aggregate small-message ingest at a single
// sink rank running background progress runners (one per engine
// shard). Every other rank is an initiator posting perSrc 8-byte
// sends toward rank 0; with peers assigned to shards by rank modulo
// shard count, the initiators spread across the sink's shards and the
// runners reap concurrently. Returns messages per second.
func ShardedSinkRate(phs []*core.Photon, perSrc int) (float64, error) {
	sink := phs[0]
	sink.StartProgress()
	nsrc := len(phs) - 1
	total := nsrc * perSrc
	errs := make([]error, nsrc)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < nsrc; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ph := phs[s+1]
			payload := make([]byte, 8)
			for i := 0; i < perSrc; i++ {
				if err := ph.SendBlocking(0, payload, 0, uint64(s*perSrc+i+1)); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	// Harvest on the main goroutine; the shard runners own Progress.
	got := 0
	deadline := time.Now().Add(benchWait)
	for got < total {
		if _, ok := sink.PopRemote(); ok {
			got++
			continue
		}
		gort.Gosched()
		if time.Now().After(deadline) {
			wg.Wait()
			return 0, fmt.Errorf("sharded sink stalled at %d/%d", got, total)
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(total) / elapsed.Seconds(), nil
}

// runE14 — cores vs message rate: engine-shard scaling at a hot sink
// rank, and the intra-host shared-memory transport against the
// simulated-verbs and socket backends at the 8-byte point.
func runE14(scale float64) (*Report, error) {
	warmProcess(scaled(100, scale))
	perSrc := scaled(1500, scale)
	iters := scaled(200, scale)

	// Leg A: aggregate ingest at one sink vs engine shard count, 4
	// initiator ranks over vsim. The -shards flag narrows the sweep.
	shardCounts := []int{1, 2, 4}
	if ShardsOverride != 0 {
		shardCounts = []int{ShardsOverride}
	}
	sweep := stats.NewSeries("E14a: aggregate 8B send ingest at one sink (Kmsg/s) vs engine shards (vsim, 4 initiator ranks)",
		"shards", "photon-pwc")
	if BackendOverride == "" || BackendOverride == "vsim" {
		for _, shards := range shardCounts {
			e, err := NewPhotonOnly(5, fabric.Model{}, core.Config{LedgerSlots: 512, EngineShards: shards})
			if err != nil {
				return nil, err
			}
			rate, err := ShardedSinkRate(e.Phs, perSrc)
			e.Close()
			if err != nil {
				return nil, fmt.Errorf("E14a shards=%d: %w", shards, err)
			}
			sweep.Row(float64(shards), rate/1e3)
		}
	}

	// Leg B: backend latency at 8 bytes — shm against the established
	// vsim and tcp rows (one-way, same measurement as Table 3).
	lat := stats.NewTable("E14b: 8-byte one-way latency (us) by backend",
		"backend", "send", "put")
	runLeg := func(name string, phs []*core.Photon) error {
		small, err := PingPongSend(phs, 8, iters)
		if err != nil {
			return fmt.Errorf("E14b %s send: %w", name, err)
		}
		_, descs, _, err := ShareBuffers(phs, 1<<16)
		if err != nil {
			return err
		}
		put, err := PingPongPWC(phs, descs, 8, iters)
		if err != nil {
			return fmt.Errorf("E14b %s put: %w", name, err)
		}
		lat.Row(name, us(small), us(put))
		return nil
	}
	want := func(name string) bool { return BackendOverride == "" || BackendOverride == name }
	if want("vsim") {
		e, err := NewPhotonOnly(2, fabric.Model{}, core.Config{})
		if err != nil {
			return nil, err
		}
		err = runLeg("vsim-verbs", e.Phs)
		e.Close()
		if err != nil {
			return nil, err
		}
	}
	if want("tcp") {
		phs, cleanup, err := NewTCPPhotons(2, core.Config{})
		if err != nil {
			return nil, err
		}
		err = runLeg("tcp-sockets", phs)
		cleanup()
		if err != nil {
			return nil, err
		}
	}
	var shmRate *stats.Series
	if want("shm") {
		phs, cleanup, err := NewShmPhotons(2, core.Config{})
		if err != nil {
			return nil, err
		}
		if err := runLeg("shm-direct", phs); err != nil {
			cleanup()
			return nil, err
		}
		// Pipelined 8B put rate over shm, the counterpart of the
		// TCP data-path profile in E11.
		_, descs, _, err := ShareBuffers(phs, 1<<20)
		if err != nil {
			cleanup()
			return nil, err
		}
		shmRate = stats.NewSeries("E14c: shm pipelined 8B put rate (Kmsg/s) vs window", "window", "rate")
		for _, w := range []int{1, 8, 32} {
			bw, err := StreamBandwidthPWC(phs, descs, 8, w, scaled(4000, scale))
			if err != nil {
				cleanup()
				return nil, err
			}
			shmRate.Row(float64(w), bw/8/1e3)
		}
		cleanup()
	}

	rep := &Report{ID: "E14", Title: "engine-shard scaling + shm backend",
		Series: []*stats.Series{sweep}, Tables: []*stats.Table{lat}}
	if shmRate != nil {
		rep.Series = append(rep.Series, shmRate)
	}
	return rep, nil
}
