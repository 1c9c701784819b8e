package main

import (
	"errors"
	"fmt"
	gort "runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"photon/internal/backend/tcp"
	"photon/internal/core"
	"photon/internal/fabric"
)

// waitTimeout bounds every blocking wait: an op that has not completed
// by then counts as failed.
const waitTimeout = 10 * time.Second

// rateIntervals is how many equal slices a phase's measured window is
// cut into. ops_per_s, goodput_MBps and op_p99_us are medians over the
// slices, so a scheduler hiccup or a burst of CPU steal by neighbouring
// machines moves them little.
const rateIntervals = 20

// counters is a snapshot of the program's public counters and of the
// process's CPU time and Go runtime state.
type counters struct {
	core   core.Stats
	tcp    tcp.DataPathStats
	shm    map[string]int64
	fab    fabric.LinkStats
	cpu    time.Duration
	allocs uint64
	numGC  uint32
	pause  uint64 // ns
}

func (e *env) snapshot() counters {
	c := counters{shm: map[string]int64{}}
	for _, p := range e.phs {
		s := p.Stats()
		c.core.PutsDirect += s.PutsDirect
		c.core.PutsPacked += s.PutsPacked
		c.core.Gets += s.Gets
		c.core.RdzvSends += s.RdzvSends
		c.core.RdzvRecvs += s.RdzvRecvs
		c.core.Atomics += s.Atomics
		c.core.CreditWrites += s.CreditWrites
		c.core.ProgressCalls += s.ProgressCalls
		c.core.DeferredWrites += s.DeferredWrites
		c.core.EntryPoolHits += s.EntryPoolHits
		c.core.EntryPoolMisses += s.EntryPoolMisses
		c.core.RingOverflows += s.RingOverflows
		c.core.BatchPosts += s.BatchPosts
		c.core.BatchedOps += s.BatchedOps
	}
	// Only raw DataPathStats fields are read: the derived ratio methods
	// may be removed from the program.
	for _, b := range e.tcp {
		s := b.Stats()
		c.tcp.Flushes += s.Flushes
		c.tcp.FramesOut += s.FramesOut
		c.tcp.ReadCalls += s.ReadCalls
		c.tcp.BytesIn += s.BytesIn
		c.tcp.AcksPiggybacked += s.AcksPiggybacked
		c.tcp.AcksStandalone += s.AcksStandalone
		c.tcp.RetransmitFrames += s.RetransmitFrames
		c.tcp.Reconnects += s.Reconnects
	}
	if e.shm != nil {
		for _, b := range e.shm.Backends() {
			b.TransportStats(func(name string, v int64) { c.shm[name] += v })
		}
	}
	if e.vsim != nil {
		c.fab = e.vsim.Fabric().TotalStats()
	}
	c.cpu = cpuTime()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	c.allocs, c.numGC, c.pause = ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	return c
}

// since returns the counter deltas from b to c. The fabric's queue
// high-water mark keeps c's value.
func (c counters) since(b counters) counters {
	d := c
	d.core = core.Stats{
		PutsDirect:      c.core.PutsDirect - b.core.PutsDirect,
		PutsPacked:      c.core.PutsPacked - b.core.PutsPacked,
		Gets:            c.core.Gets - b.core.Gets,
		RdzvSends:       c.core.RdzvSends - b.core.RdzvSends,
		RdzvRecvs:       c.core.RdzvRecvs - b.core.RdzvRecvs,
		Atomics:         c.core.Atomics - b.core.Atomics,
		CreditWrites:    c.core.CreditWrites - b.core.CreditWrites,
		ProgressCalls:   c.core.ProgressCalls - b.core.ProgressCalls,
		DeferredWrites:  c.core.DeferredWrites - b.core.DeferredWrites,
		EntryPoolHits:   c.core.EntryPoolHits - b.core.EntryPoolHits,
		EntryPoolMisses: c.core.EntryPoolMisses - b.core.EntryPoolMisses,
		RingOverflows:   c.core.RingOverflows - b.core.RingOverflows,
		BatchPosts:      c.core.BatchPosts - b.core.BatchPosts,
		BatchedOps:      c.core.BatchedOps - b.core.BatchedOps,
	}
	d.tcp = tcp.DataPathStats{
		Flushes:          c.tcp.Flushes - b.tcp.Flushes,
		FramesOut:        c.tcp.FramesOut - b.tcp.FramesOut,
		ReadCalls:        c.tcp.ReadCalls - b.tcp.ReadCalls,
		BytesIn:          c.tcp.BytesIn - b.tcp.BytesIn,
		AcksPiggybacked:  c.tcp.AcksPiggybacked - b.tcp.AcksPiggybacked,
		AcksStandalone:   c.tcp.AcksStandalone - b.tcp.AcksStandalone,
		RetransmitFrames: c.tcp.RetransmitFrames - b.tcp.RetransmitFrames,
		Reconnects:       c.tcp.Reconnects - b.tcp.Reconnects,
	}
	d.shm = map[string]int64{}
	for k, v := range c.shm {
		d.shm[k] = v - b.shm[k]
	}
	d.fab.Frames = c.fab.Frames - b.fab.Frames
	d.fab.Bytes = c.fab.Bytes - b.fab.Bytes
	d.cpu = c.cpu - b.cpu
	d.allocs = c.allocs - b.allocs
	d.numGC = c.numGC - b.numGC
	d.pause = c.pause - b.pause
	return d
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rankStats is what one rank's goroutine measured in a phase. Each
// rank owns its own, so recording takes no locks.
type rankStats struct {
	start time.Time           // of the phase's measured window
	slice time.Duration       // one rate interval
	lat   [rateIntervals]hist // op latency in ns, by the interval the op ended in

	attempted, failed         int64
	progCalls, progUseful     int64 // the benchmark's own Progress calls
	postAttempts, postBlocked int64 // post calls, and those returning ErrWouldBlock
	inflightArea              float64
	loopNS                    int64
	firstErr                  error

	// done counts completed ops and their payload bytes; the phase's
	// sampler reads them concurrently.
	done struct {
		ops, bytes atomic.Int64
		_          [48]byte // keep ranks' counters on separate cache lines
	}

	tr *tracer // nil when untraced; roots are ops, steps or loop turns
}

// fail counts one failed op and keeps the first reason.
func (rs *rankStats) fail(err error) {
	rs.failed++
	if rs.firstErr == nil {
		rs.firstErr = err
	}
}

// complete records one op that started at t0 and has just finished.
func (rs *rankStats) complete(t0 time.Time, payload int) {
	rs.observe(t0)
	rs.done.ops.Add(1)
	rs.done.bytes.Add(int64(payload))
}

// observe records the latency of an op that started at t0 and has just
// finished, without counting it.
func (rs *rankStats) observe(t0 time.Time) {
	end := time.Now()
	i := int(end.Sub(rs.start) / rs.slice)
	if i >= rateIntervals {
		i = rateIntervals - 1 // finished while the phase drained
	}
	rs.lat[i].add(int64(end.Sub(t0)))
}

// phase is one measured window of a workload on a booted job.
type phase struct {
	deadline time.Time // ranks stop issuing new ops at this instant
	ranks    [ranks]*rankStats
	rates    []float64 // ops/s per interval
	goodput  []float64 // payload B/s per interval
	memPeak  uint64    // most memory held from the OS at an interval's end
	c        counters  // deltas over the phase
}

func (p *phase) ops() int64 {
	var n int64
	for _, rs := range p.ranks {
		n += rs.done.ops.Load()
	}
	return n
}

func (p *phase) bytes() int64 {
	var n int64
	for _, rs := range p.ranks {
		n += rs.done.bytes.Load()
	}
	return n
}

func (p *phase) attempted() (a, f int64) {
	for _, rs := range p.ranks {
		a += rs.attempted
		f += rs.failed
	}
	return a, f
}

func (p *phase) err() error {
	for r, rs := range p.ranks {
		if rs.firstErr != nil {
			return fmt.Errorf("rank %d: %w", r, rs.firstErr)
		}
	}
	return nil
}

// lat merges both ranks' op latencies.
func (p *phase) lat() *hist {
	h := &hist{}
	for _, rs := range p.ranks {
		for i := range rs.lat {
			h.merge(&rs.lat[i])
		}
	}
	return h
}

// sliceQuantile is the median over rate intervals of each interval's
// q-quantile op latency.
func (p *phase) sliceQuantile(q float64) float64 {
	var qs []float64
	for i := 0; i < rateIntervals; i++ {
		h := &hist{}
		for _, rs := range p.ranks {
			h.merge(&rs.lat[i])
		}
		if h.n > 0 {
			qs = append(qs, h.quantile(q))
		}
	}
	return median(qs)
}

// tracer merges the ranks' tracers.
func (p *phase) tracer() *tracer {
	t := &tracer{}
	for _, rs := range p.ranks {
		if rs.tr != nil {
			t.merge(rs.tr)
		}
	}
	return t
}

// runPhase runs body, which must start one goroutine per rank and wait
// for them, while this goroutine samples the completed-op counters
// rateIntervals times across dur.
func runPhase(e *env, dur time.Duration, traced bool, body func(p *phase)) *phase {
	p := &phase{}
	before := e.snapshot()
	start := time.Now()
	p.deadline = start.Add(dur)
	for r := range p.ranks {
		rs := &rankStats{start: start, slice: dur / rateIntervals}
		if traced {
			rs.tr = newTracer(start)
		}
		p.ranks[r] = rs
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		body(p)
	}()
	lastOps, lastBytes, last := int64(0), int64(0), start
	for i := 1; i <= rateIntervals; i++ {
		at := start.Add(dur * time.Duration(i) / rateIntervals)
		select {
		case <-finished:
		case <-time.After(time.Until(at)):
		}
		now := time.Now()
		ops, b := p.ops(), p.bytes()
		if s := now.Sub(last).Seconds(); s > 0 {
			p.rates = append(p.rates, float64(ops-lastOps)/s)
			p.goodput = append(p.goodput, float64(b-lastBytes)/s)
		}
		lastOps, lastBytes, last = ops, b, now
		if h := heldBytes(); h > p.memPeak {
			p.memPeak = h
		}
	}
	<-finished
	p.c = e.snapshot().since(before)
	return p
}

// heldBytes is the memory the Go runtime holds from the OS now: what
// it has mapped minus what it has returned.
func heldBytes() uint64 {
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	return ms.Sys - ms.HeapReleased
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parker paces a dry progress loop: it parks on a backend activity
// channel (all three transports provide one) with a short grace
// period, as the engine's own wait loop does. Spinning instead would
// starve the backends' goroutines on a two-CPU host.
type parker struct {
	ch    <-chan struct{}
	timer *time.Timer
}

const parkGrace = time.Millisecond

func newParker(ch <-chan struct{}) *parker {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &parker{ch: ch, timer: t}
}

func (k *parker) park() {
	if k.ch == nil {
		gort.Gosched()
		return
	}
	k.timer.Reset(parkGrace)
	select {
	case <-k.ch:
		if !k.timer.Stop() {
			<-k.timer.C
		}
	case <-k.timer.C:
	}
}

func (k *parker) stop() { k.timer.Stop() }

// progress drives one Progress round and counts whether it was useful.
func progress(ph *core.Photon, rs *rankStats, tr *tracer) int {
	s := tr.now()
	n := ph.Progress()
	tr.child(spProgress, s)
	rs.progCalls++
	if n > 0 {
		rs.progUseful++
	}
	return n
}

// posted accounts one post call: it reports whether the caller should
// retry (ErrWouldBlock) after driving progress.
func (rs *rankStats) posted(err error) (retry bool) {
	rs.postAttempts++
	if errors.Is(err, core.ErrWouldBlock) {
		rs.postBlocked++
		return true
	}
	return false
}
