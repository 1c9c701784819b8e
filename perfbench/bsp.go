package main

import (
	"fmt"
	"time"

	"photon/internal/collectives"
)

// bsp-steps: vsim over a zero-delay fabric. Each step, every rank
// PWC-puts an 8 KiB halo row into its peer and waits for the peer's row
// to land, then runs an 8-element AllreduceInPlace (the recursive-
// doubling arena path) and a Barrier. Every 16th step also runs a
// 16 Ki-element AllreduceInPlace (128 KiB: ring path, rendezvous
// segments). Inputs are integers, so every sum is exact to check.

const (
	bspHaloBytes  = 8 << 10
	bspSmallLen   = 8
	bspLargeLen   = 16 << 10
	bspLargeEvery = 16
	bspVariants   = 4 // distinct large inputs, cycled
	bspTapeBytes  = 256 << 10
)

type bsp struct {
	e        *env
	seed     uint64
	tape     tape
	step     uint64 // next step number
	large    [bspVariants][ranks][]float64
	largeSum [bspVariants][]float64
}

func bspBufs(uint64) [][]byte {
	bufs := make([][]byte, ranks)
	for r := range bufs {
		bufs[r] = make([]byte, bspHaloBytes)
	}
	return bufs
}

func newBSP(e *env, seed uint64) *bsp {
	w := &bsp{e: e, seed: seed, tape: newTape(seed, bspTapeBytes), step: 1}
	for v := range w.large {
		w.largeSum[v] = make([]float64, bspLargeLen)
		for r := range w.large[v] {
			w.large[v][r] = make([]float64, bspLargeLen)
			bspLarge(w.large[v][r], w.tape, r, v)
			for i, x := range w.large[v][r] {
				w.largeSum[v][i] += x
			}
		}
	}
	return w
}

func (w *bsp) haloTapeOff(rank int, step uint64) int {
	return int(opHash(w.seed, rank, step, 3)%uint64(bspTapeBytes-bspHaloBytes)) &^ 7
}

// stepPayload is the bytes one step moves, summed over ranks.
func stepPayload(step uint64) int {
	n := ranks * (bspHaloBytes + 8*bspSmallLen)
	if step%bspLargeEvery == 0 {
		n += ranks * 8 * bspLargeLen
	}
	return n
}

func (w *bsp) phase(dur time.Duration, traced bool) *phase {
	return runPhase(w.e, dur, traced, func(p *phase) {
		var next [ranks]uint64
		onRanks(func(r int) { next[r] = w.rank(p, r) })
		w.step = next[0]
	})
}

// rank runs steps until the stop vote carried in element 0 of the small
// allreduce passes; it returns the next step number. Rank 0 votes at
// the deadline, and either rank votes once it has seen a failure.
func (w *bsp) rank(p *phase, r int) uint64 {
	ph, comm, rs, tr := w.e.phs[r], w.e.comms[r], p.ranks[r], p.ranks[r].tr
	q := 1 - r
	row := make([]byte, bspHaloBytes)
	vec, want, peer := make([]float64, bspSmallLen), make([]float64, bspSmallLen), make([]float64, bspSmallLen)
	large := make([]float64, bspLargeLen)
	for step := w.step; ; step++ {
		if r == 0 {
			rs.attempted++
		}
		tr.begin(step)
		t0 := time.Now()

		w.tape.fillPayload(row, step, w.haloTapeOff(r, step))
		var err error
		for {
			s := tr.now()
			err = ph.PutWithCompletion(q, row, w.e.descs[r][q], 0, 0, rid(step, kPut))
			tr.child(spPost, s)
			if !rs.posted(err) {
				break
			}
			progress(ph, rs, tr)
		}
		if err != nil {
			rs.fail(fmt.Errorf("step %d: halo put: %w", step, err))
			return step + 1
		}
		s := tr.now()
		c, err := ph.WaitRemote(rid(step, kPut), waitTimeout)
		tr.child(spWait, s)
		if err == nil {
			err = c.Err
		}
		if err != nil {
			rs.fail(fmt.Errorf("step %d: halo wait: %w", step, err))
			return step + 1
		}
		w.e.lks[r].Lock()
		ok := w.tape.checkPayload(w.e.bufs[r], step, w.haloTapeOff(q, step))
		w.e.lks[r].Unlock()
		if !ok {
			rs.fail(fmt.Errorf("step %d: halo row from rank %d mismatch", step, q))
		}

		bspSmall(vec, w.seed, r, step)
		if rs.failed > 0 || (r == 0 && !time.Now().Before(p.deadline)) {
			vec[0] = 1
		}
		s = tr.now()
		err = comm.AllreduceInPlace(vec, collectives.OpSum)
		tr.child(spAllreduceSmall, s)
		if err != nil {
			rs.fail(fmt.Errorf("step %d: small allreduce: %w", step, err))
			return step + 1
		}
		bspSmall(want, w.seed, r, step)
		bspSmall(peer, w.seed, q, step)
		for i := 1; i < bspSmallLen; i++ {
			if vec[i] != want[i]+peer[i] {
				rs.fail(fmt.Errorf("step %d: small allreduce element %d = %v, want %v", step, i, vec[i], want[i]+peer[i]))
				break
			}
		}
		stop := vec[0] != 0
		if vec[0] != 0 && vec[0] != 1 && vec[0] != 2 {
			rs.fail(fmt.Errorf("step %d: stop votes sum to %v", step, vec[0]))
		}

		if step%bspLargeEvery == 0 {
			v := int(step/bspLargeEvery) % bspVariants
			copy(large, w.large[v][r])
			s = tr.now()
			err = comm.AllreduceInPlace(large, collectives.OpSum)
			tr.child(spAllreduceLarge, s)
			if err != nil {
				rs.fail(fmt.Errorf("step %d: large allreduce: %w", step, err))
				return step + 1
			}
			for i, x := range large {
				if x != w.largeSum[v][i] {
					rs.fail(fmt.Errorf("step %d: large allreduce element %d = %v, want %v", step, i, x, w.largeSum[v][i]))
					break
				}
			}
		}

		s = tr.now()
		err = comm.Barrier()
		tr.child(spBarrier, s)
		if err != nil {
			rs.fail(fmt.Errorf("step %d: barrier: %w", step, err))
			return step + 1
		}
		if r == 0 {
			rs.complete(t0, stepPayload(step))
		} else {
			rs.observe(t0)
		}
		tr.end()
		if stop {
			return step + 1
		}
	}
}
