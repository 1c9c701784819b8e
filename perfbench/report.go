package main

import (
	"math"
	"sort"
	"time"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names; a self-test keeps the two in step.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"op_p50_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"goodput_MBps", "MB/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"mem_peak_MB", "MB", "lower"},
}

var perLayer = []metricSpec{
	{"core.post_ns.p50", "ns", "lower"},
	{"core.post_ns.p99", "ns", "lower"},
	{"core.wait_ns.p50", "ns", "lower"},
	{"core.overhead_ns", "ns", "lower"},
	{"core.progress_ns.p50", "ns", "lower"},
	{"core.progress_useful_ratio", "ratio", "higher"},
	{"core.progress_calls_per_op", "count/op", "lower"},
	{"core.post_wouldblock_ratio", "ratio", "lower"},
	{"core.batched_ops_per_post", "count", "higher"},
	{"core.entry_pool_miss_ratio", "ratio", "lower"},
	{"core.ring_overflows", "count", "lower"},
	{"ledger.packed_share", "ratio", "higher"},
	{"ledger.credit_writes_per_kop", "count/kop", "lower"},
	{"ledger.deferred_writes_per_kop", "count/kop", "lower"},
	{"shm.raw_rtt_ns.p50", "ns", "lower"},
	{"shm.raw_fa_rtt_ns.p50", "ns", "lower"},
	{"shm.frames_per_op", "count/op", "lower"},
	{"shm.ring_full_spins_per_kop", "count/kop", "lower"},
	{"shm.agent_parks_per_kop", "count/kop", "lower"},
	{"tcp.raw_rtt_ns.p50", "ns", "lower"},
	{"tcp.raw_fa_rtt_ns.p50", "ns", "lower"},
	{"tcp.frames_per_flush", "count", "higher"},
	{"tcp.bytes_per_read", "B", "higher"},
	{"tcp.acks_piggyback_ratio", "ratio", "higher"},
	{"tcp.acks_standalone_per_kop", "count/kop", "lower"},
	{"tcp.retransmit_frames", "count", "lower"},
	{"tcp.reconnects", "count", "lower"},
	{"vsim.raw_rtt_ns.p50", "ns", "lower"},
	{"vsim.raw_fa_rtt_ns.p50", "ns", "lower"},
	{"fabric.frames_per_op", "count/op", "lower"},
	{"fabric.wire_bytes_per_payload_byte", "ratio", "lower"},
	{"fabric.max_queued", "count", "lower"},
	{"coll.allreduce_small_us.p50", "us", "lower"},
	{"coll.barrier_us.p50", "us", "lower"},
	{"coll.allreduce_large_us.p50", "us", "lower"},
	{"coll.comm_setup_us", "us", "lower"},
	{"mem.register_us", "us", "lower"},
	{"mem.exchange_us", "us", "lower"},
	{"go.allocs_per_op", "count/op", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_us_total", "us", "lower"},
	{"self.bench_ns", "ns", "lower"},
	{"self.core_ns", "ns", "lower"},
	{"self.coll_ns", "ns", "lower"},
	{"self.idle_ns", "ns", "lower"},
	{"trace.reconcile_gap_ratio", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// reconcileTolerance bounds trace.reconcile_gap_ratio; see README.md.
const reconcileTolerance = 0.10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			m[name] = metric{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("unknown metric " + name)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func medianDur(xs []time.Duration) time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// endToEndMetrics reports an untraced phase.
func endToEndMetrics(setups []setupTimes, p *phase) metrics {
	m := metrics{}
	set := func(name string, v float64) { m.set(endToEnd, name, v) }
	var tot []time.Duration
	for _, s := range setups {
		tot = append(tot, s.total)
	}
	set("setup_s", medianDur(tot).Seconds())
	lat := p.lat()
	set("op_p50_us", lat.quantile(0.5)/1e3)
	set("op_p99_us", p.sliceQuantile(0.99)/1e3)
	set("ops_per_s", median(p.rates))
	set("goodput_MBps", median(p.goodput)/1e6)
	set("cpu_us_per_op", ratio(float64(p.c.cpu.Microseconds()), float64(p.ops())))
	set("mem_peak_MB", float64(p.memPeak)/(1<<20))
	return m
}

// floorNS is the raw transport cost of the workload's op, the part of
// op_p50_us no engine can remove: puts and Sends (a write and its reply
// or ack) cost one write round trip, gets and FetchAdds one fetch-add
// round trip, in the mix's shares; a bsp step crosses the wire one way
// three times (halo, one recursive-doubling round, one barrier round).
func floorNS(workload string, fl map[string]*floor) float64 {
	switch workload {
	case "rma-latency":
		f := fl["shm"]
		return 0.6*f.write.quantile(0.5) + 0.4*f.fa.quantile(0.5)
	case "rma-stream":
		f := fl["tcp"]
		return 0.65*f.write.quantile(0.5) + 0.35*f.fa.quantile(0.5)
	default:
		return 1.5 * fl["vsim"].write.quantile(0.5)
	}
}

// perLayerMetrics reports a traced run: counters and spans from the
// traced phase tp, the untraced phase up for comparison, the set-ups
// and the transport floors.
func perLayerMetrics(workload string, setups []setupTimes, up, tp *phase, fl map[string]*floor) (metrics, float64) {
	m := metrics{}
	set := func(name string, v float64) { m.set(perLayer, name, v) }
	ops := float64(tp.ops())
	if workload == "bsp-steps" {
		ops = float64(tp.ranks[0].done.ops.Load())
	}
	c := tp.c
	perOp := func(n int64) float64 { return ratio(float64(n), ops) }
	perKop := func(n int64) float64 { return 1000 * perOp(n) }
	tr := tp.tracer()

	set("core.post_ns.p50", tr.dur[spPost].quantile(0.5))
	set("core.post_ns.p99", tr.dur[spPost].quantile(0.99))
	set("core.wait_ns.p50", tr.dur[spWait].quantile(0.5))
	set("core.overhead_ns", up.lat().quantile(0.5)-floorNS(workload, fl))
	set("core.progress_ns.p50", tr.dur[spProgress].quantile(0.5))
	var pc, pu, pa, pb int64
	for _, rs := range tp.ranks {
		pc, pu, pa, pb = pc+rs.progCalls, pu+rs.progUseful, pa+rs.postAttempts, pb+rs.postBlocked
	}
	set("core.progress_useful_ratio", ratio(float64(pu), float64(pc)))
	set("core.progress_calls_per_op", perOp(c.core.ProgressCalls))
	set("core.post_wouldblock_ratio", ratio(float64(pb), float64(pa)))
	set("core.batched_ops_per_post", ratio(float64(c.core.BatchedOps), float64(c.core.BatchPosts)))
	set("core.entry_pool_miss_ratio", ratio(float64(c.core.EntryPoolMisses), float64(c.core.EntryPoolHits+c.core.EntryPoolMisses)))
	set("core.ring_overflows", float64(c.core.RingOverflows))
	set("ledger.packed_share", ratio(float64(c.core.PutsPacked), float64(c.core.PutsPacked+c.core.PutsDirect)))
	set("ledger.credit_writes_per_kop", perKop(c.core.CreditWrites))
	set("ledger.deferred_writes_per_kop", perKop(c.core.DeferredWrites))

	for _, t := range []string{"shm", "tcp", "vsim"} {
		set(t+".raw_rtt_ns.p50", fl[t].write.quantile(0.5))
		set(t+".raw_fa_rtt_ns.p50", fl[t].fa.quantile(0.5))
	}
	set("shm.frames_per_op", perOp(c.shm["shm_frames_out"]))
	set("shm.ring_full_spins_per_kop", perKop(c.shm["shm_ring_full_spins"]))
	set("shm.agent_parks_per_kop", perKop(c.shm["shm_agent_parks"]))
	set("tcp.frames_per_flush", ratio(float64(c.tcp.FramesOut), float64(c.tcp.Flushes)))
	set("tcp.bytes_per_read", ratio(float64(c.tcp.BytesIn), float64(c.tcp.ReadCalls)))
	set("tcp.acks_piggyback_ratio", ratio(float64(c.tcp.AcksPiggybacked), float64(c.tcp.AcksPiggybacked+c.tcp.AcksStandalone)))
	set("tcp.acks_standalone_per_kop", perKop(c.tcp.AcksStandalone))
	set("tcp.retransmit_frames", float64(c.tcp.RetransmitFrames))
	set("tcp.reconnects", float64(c.tcp.Reconnects))
	set("fabric.frames_per_op", perOp(c.fab.Frames))
	set("fabric.wire_bytes_per_payload_byte", ratio(float64(c.fab.Bytes), float64(tp.bytes())))
	set("fabric.max_queued", float64(c.fab.MaxQueued))

	set("coll.allreduce_small_us.p50", tr.dur[spAllreduceSmall].quantile(0.5)/1e3)
	set("coll.barrier_us.p50", tr.dur[spBarrier].quantile(0.5)/1e3)
	set("coll.allreduce_large_us.p50", tr.dur[spAllreduceLarge].quantile(0.5)/1e3)
	var comm, reg, exg []time.Duration
	for _, s := range setups {
		comm, reg, exg = append(comm, s.comm), append(reg, s.register), append(exg, s.exchange)
	}
	set("coll.comm_setup_us", float64(medianDur(comm).Nanoseconds())/1e3)
	set("mem.register_us", float64(medianDur(reg).Nanoseconds())/1e3)
	set("mem.exchange_us", float64(medianDur(exg).Nanoseconds())/1e3)

	set("go.allocs_per_op", perOp(int64(c.allocs)))
	set("go.gc_cycles", float64(c.numGC))
	set("go.gc_pause_us_total", float64(c.pause)/1e3)

	gap := reconcile(workload, tp, tr, set)
	set("trace.reconcile_gap_ratio", gap)
	set("trace.overhead_ratio", ratio(median(tp.rates), median(up.rates)))
	return m, gap
}

// reconcile sets the per-layer self times and returns how far their sum
// is from the latency it should explain, as a share of that latency.
//
// rma-latency and bsp-steps have one root per op or step, so each
// layer's self time is its median per op, and the medians should add
// up to the median op latency of the same phase. rma-stream's roots
// are loop turns that serve many overlapping ops; there each layer's
// self time is its loop time per completed op, and by Little's law the
// mean number of ops in flight times that loop time per op is the mean
// op latency.
func reconcile(workload string, tp *phase, tr *tracer, set func(string, float64)) float64 {
	var sum, want float64
	if workload == "rma-stream" {
		ops := float64(tp.ops())
		var area, loop float64
		for _, rs := range tp.ranks {
			area += rs.inflightArea
			loop += float64(rs.loopNS)
		}
		for l := lBench; l < lBackend; l++ {
			v := ratio(float64(tr.selfTotal[l]), ops)
			set("self."+layerNames[l]+"_ns", v)
			sum += v
		}
		sum *= ratio(area, loop) // mean ops in flight per rank
		want = tp.lat().mean()
	} else {
		for l := lBench; l < lBackend; l++ {
			v := tr.self[l].quantile(0.5)
			set("self."+layerNames[l]+"_ns", v)
			sum += v
		}
		want = tr.dur[spRoot].quantile(0.5)
	}
	return math.Abs(sum-want) / want
}
