package core

import "sync"

// Allgather is the bootstrap Exchange of an in-process cluster (vsim,
// shm): every rank contributes a blob, the last to arrive publishes the
// set, and everyone returns it. A generation can complete only once
// every rank has arrived, and each rank reads the previous generation
// before it can arrive again, so one published result is all the state
// a generation needs.
type Allgather struct {
	n int

	//photon:lock allgather 95
	mu      sync.Mutex
	cond    sync.Cond
	gen     int
	arrived int
	blobs   [][]byte
	out     [][]byte
}

// NewAllgather creates the exchange for an n-rank cluster.
func NewAllgather(n int) *Allgather {
	a := &Allgather{n: n, blobs: make([][]byte, n)}
	a.cond.L = &a.mu
	return a
}

// Exchange contributes rank's blob (copied) and blocks until every rank
// has contributed, returning all blobs indexed by rank.
func (a *Allgather) Exchange(rank int, blob []byte) [][]byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	gen := a.gen
	a.blobs[rank] = append([]byte(nil), blob...)
	a.arrived++
	if a.arrived == a.n {
		a.out, a.blobs = a.blobs, make([][]byte, a.n)
		a.arrived = 0
		a.gen++
		a.cond.Broadcast()
	}
	for a.gen == gen {
		a.cond.Wait()
	}
	return a.out
}
