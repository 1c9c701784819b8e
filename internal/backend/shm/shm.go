// Package shm is Photon's intra-host shared-memory backend: the
// core.Backend transport contract for peers that share an address
// space. It models the direct-access path high-performance runtimes
// take for same-node peers (Photon's use_cma, MPI-3 shared-memory
// windows): the initiator copies straight into, or out of, the
// target's registered memory itself, so there is no agent on the
// target, no request framing and no goroutine handoff. A put is one
// copy under the target's memory lock and a wake of the target's
// engine.
//
// Every Post* applies its operation before it returns, under the
// target's registration lock with the same rkey, bounds and alignment
// checks a remote agent would run, and then pushes the completion into
// the initiator's own CompQueue. That gives the core.Backend contract
// directly:
//
//   - RC order, and a signaled completion fencing every earlier op
//     toward the same rank: each op is applied before its post returns.
//   - Snapshot-at-post: the payload is copied before PostWrite returns.
//   - Post never waits on the target's progress, only on the target's
//     bounded critical sections under its registration lock (the
//     engine's ledger sweep, an application read). That is why no
//     caller may post while holding a registration locker: two ranks
//     doing so toward each other would each wait for the other's lock.
//
// The same path serves every rank, the initiator's own included.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"photon/internal/core"
	"photon/internal/mem"
	"photon/internal/trace"
)

// Config tunes the cluster. Direct access needs no per-pair resources,
// so there is nothing to tune yet.
type Config struct{}

// atomicLen is the size and alignment of the word every fetch-add and
// comp-swap acts on, and the size its result buffer must hold.
const atomicLen = 8

var errMisaligned = errors.New("shm: misaligned atomic")

// registration is one pinned buffer in the fake address space (same
// scheme as the TCP backend: page-aligned bases handed out linearly,
// rkey-keyed).
type registration struct {
	buf  []byte
	base uint64
	rkey uint32
}

// Cluster owns one shm backend per rank plus the bootstrap exchange
// state. All ranks live in the calling process.
type Cluster struct {
	backends []*Backend

	//photon:lock shmcluster 10
	mu      sync.Mutex
	cond    *sync.Cond
	gen     int
	arrived int
	blobs   [][]byte
	outs    map[int][][]byte
	readers map[int]int
}

// NewCluster creates an n-rank shared-memory job.
func NewCluster(n int, cfg Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shm: cluster size %d", n)
	}
	c := &Cluster{
		backends: make([]*Backend, n),
		blobs:    make([][]byte, n),
		outs:     make(map[int][][]byte),
		readers:  make(map[int]int),
	}
	c.cond = sync.NewCond(&c.mu)
	for r := 0; r < n; r++ {
		c.backends[r] = &Backend{
			cluster:  c,
			rank:     r,
			size:     n,
			regs:     make(map[uint32]*registration),
			nextRKey: 1,
			nextBase: 0x1000,
			compq:    core.NewCompQueue(),
		}
	}
	return c, nil
}

// Backends returns the per-rank backends, indexed by rank.
func (c *Cluster) Backends() []*Backend { return c.backends }

// Backend returns the backend for one rank.
func (c *Cluster) Backend(rank int) *Backend { return c.backends[rank] }

// Close shuts down every backend.
func (c *Cluster) Close() {
	for _, b := range c.backends {
		if b != nil {
			b.Close()
		}
	}
}

// exchange implements the collective allgather barrier (same protocol
// as the vsim cluster: arrive, last rank publishes, everyone reads).
func (c *Cluster) exchange(rank int, blob []byte) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.gen
	c.blobs[rank] = append([]byte(nil), blob...)
	c.arrived++
	n := len(c.backends)
	if c.arrived == n {
		out := make([][]byte, n)
		copy(out, c.blobs)
		c.outs[gen] = out
		c.readers[gen] = n
		c.blobs = make([][]byte, n)
		c.arrived = 0
		c.gen++
		c.cond.Broadcast()
	} else {
		for c.gen == gen {
			c.cond.Wait()
		}
	}
	out := c.outs[gen]
	c.readers[gen]--
	if c.readers[gen] == 0 {
		delete(c.outs, gen)
		delete(c.readers, gen)
	}
	return out, nil
}

// Backend is one rank's shared-memory transport endpoint.
type Backend struct {
	cluster *Cluster
	rank    int
	size    int

	// memMu guards registered memory (the "DMA lock"). Initiators take
	// it, on the target's Backend, for the duration of each copy.
	//photon:lock shmmem 30
	memMu    sync.RWMutex
	writeAct atomic.Uint64 // bumped after every applied write/atomic
	regs     map[uint32]*registration
	nextRKey uint32
	nextBase uint64

	// compq carries completions to this rank's engine and doubles as
	// its NotifyBackend/WakeSinkBackend event source: initiators kick
	// it when data lands here.
	compq  *core.CompQueue
	closed atomic.Bool

	// Transport counters (TransportStats): ops this rank initiated and
	// ops other ranks (or itself) applied here, with payload bytes.
	opsOut   atomic.Int64
	opsIn    atomic.Int64
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

var (
	_ core.Backend         = (*Backend)(nil)
	_ core.BatchBackend    = (*Backend)(nil)
	_ core.NotifyBackend   = (*Backend)(nil)
	_ core.WakeSinkBackend = (*Backend)(nil)
	_ core.ActivityBackend = (*Backend)(nil)
	_ core.StatsBackend    = (*Backend)(nil)
)

// Rank returns this endpoint's rank.
func (b *Backend) Rank() int { return b.rank }

// Size returns the job size.
func (b *Backend) Size() int { return b.size }

// Register pins buf into the local registration table.
func (b *Backend) Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	if len(buf) == 0 {
		return mem.RemoteBuffer{}, nil, fmt.Errorf("shm: empty registration")
	}
	b.memMu.Lock()
	defer b.memMu.Unlock()
	rkey := b.nextRKey
	b.nextRKey++
	base := b.nextBase
	sz := (uint64(len(buf)) + 0xFFF) &^ uint64(0xFFF)
	b.nextBase += sz + 0x1000
	b.regs[rkey] = &registration{buf: buf, base: base, rkey: rkey}
	return mem.RemoteBuffer{Addr: base, RKey: rkey, Len: len(buf)}, b.memMu.RLocker(), nil
}

// Deregister removes a registration.
func (b *Backend) Deregister(rb mem.RemoteBuffer) error {
	b.memMu.Lock()
	defer b.memMu.Unlock()
	if _, ok := b.regs[rb.RKey]; !ok {
		return fmt.Errorf("shm: no registration with rkey %d", rb.RKey)
	}
	delete(b.regs, rb.RKey)
	return nil
}

// lookup resolves (rkey, addr, n) to the bytes it names; caller must
// hold memMu.
func (b *Backend) lookup(rkey uint32, addr uint64, n int) ([]byte, error) {
	r, ok := b.regs[rkey]
	if !ok {
		return nil, fmt.Errorf("shm: unknown rkey %d", rkey)
	}
	if addr < r.base || addr+uint64(n) > r.base+uint64(len(r.buf)) || addr+uint64(n) < addr {
		return nil, fmt.Errorf("shm: address out of registration bounds")
	}
	off := addr - r.base
	return r.buf[off : off+uint64(n)], nil
}

// copyIn copies data into this rank's registered memory at
// (raddr, rkey) under the memory lock.
func (b *Backend) copyIn(raddr uint64, rkey uint32, data []byte) error {
	b.memMu.Lock()
	dst, err := b.lookup(rkey, raddr, len(data))
	if err == nil {
		copy(dst, data)
	}
	b.memMu.Unlock()
	return err
}

// ApplyLocal performs a loopback DMA write into this rank's own
// registered memory with full validation.
func (b *Backend) ApplyLocal(raddr uint64, rkey uint32, data []byte) error {
	err := b.copyIn(raddr, rkey, data)
	if err == nil {
		b.writeAct.Add(1)
	}
	return err
}

// WriteActivity implements core.ActivityBackend with one counter for
// all registrations (every applied write and atomic bumps it).
func (b *Backend) WriteActivity(rb mem.RemoteBuffer) (func() uint64, bool) {
	return b.writeAct.Load, true
}

// Poll reaps completions.
func (b *Backend) Poll(dst []core.BackendCompletion) int {
	return b.compq.Drain(dst)
}

// Notify implements core.NotifyBackend: signaled when a completion is
// queued or remote data lands in registered memory.
func (b *Backend) Notify() <-chan struct{} { return b.compq.Wake().Chan() }

// SetWakeSink implements core.WakeSinkBackend.
func (b *Backend) SetWakeSink(fn func()) { b.compq.Wake().SetSink(fn) }

// TransportStats implements core.StatsBackend. The frame gauges count
// applied ops, so per-op frame ratios read 1 per backend op; the byte
// gauges count their payload bytes.
func (b *Backend) TransportStats(yield func(name string, v int64)) {
	yield("shm_frames_in", b.opsIn.Load())
	yield("shm_frames_out", b.opsOut.Load())
	yield("shm_bytes_in", b.bytesIn.Load())
	yield("shm_bytes_out", b.bytesOut.Load())
}

// ClockOffset implements core.ClockBackend: every rank lives in one
// process, so all clocks are identical by construction.
func (b *Backend) ClockOffset(rank int) (offsetNS, rttNS int64, ok bool) {
	return 0, 0, rank >= 0 && rank < b.size
}

// Exchange performs the collective bootstrap allgather.
func (b *Backend) Exchange(local []byte) ([][]byte, error) {
	return b.cluster.exchange(b.rank, local)
}

// Close releases the endpoint: later posts from it fail with
// core.ErrClosed, and posts toward it with core.ErrPeerDown. Nothing
// is ever in flight, so there is nothing to drain. Idempotent.
func (b *Backend) Close() error {
	b.closed.Store(true)
	return nil
}

// target resolves the Backend a post toward rank acts on.
func (b *Backend) target(rank int) (*Backend, error) {
	if rank < 0 || rank >= b.size {
		return nil, core.ErrBadRank
	}
	if b.closed.Load() {
		return nil, core.ErrClosed
	}
	t := b.cluster.backends[rank]
	if t.closed.Load() {
		return nil, core.ErrPeerDown
	}
	return t, nil
}

// applied accounts one op from b that t carried out over n payload
// bytes.
func (b *Backend) applied(t *Backend, n int) {
	b.opsOut.Add(1)
	b.bytesOut.Add(int64(n))
	t.opsIn.Add(1)
	t.bytesIn.Add(int64(n))
}

// landed publishes a write or atomic that changed t's memory: the
// activity count lets t's engine sweep its ledgers.
func (b *Backend) landed(t *Backend, token uint64) {
	t.writeAct.Add(1)
	trace.RecordLink(trace.KindWire, t.rank, b.rank, token, 0, "shm.apply")
}

// PostWrite copies local into rank's registered memory before it
// returns (snapshot-at-post), wakes rank's engine, and, if signaled,
// completes token.
func (b *Backend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	t, err := b.target(rank)
	if err != nil {
		return err
	}
	err = b.write(t, local, raddr, rkey, token)
	t.compq.Kick()
	if signaled {
		b.compq.Push(core.BackendCompletion{Token: token, OK: err == nil, Err: err})
	}
	return nil
}

// PostWriteBatch implements core.BatchBackend: every write lands before
// one wake of the target's engine.
func (b *Backend) PostWriteBatch(rank int, reqs []core.WriteReq) (int, error) {
	t, err := b.target(rank)
	if err != nil {
		return 0, err
	}
	for i := range reqs {
		r := &reqs[i]
		err := b.write(t, r.Local, r.RemoteAddr, r.RKey, r.Token)
		if r.Signaled {
			b.compq.Push(core.BackendCompletion{Token: r.Token, OK: err == nil, Err: err})
		}
	}
	t.compq.Kick()
	return len(reqs), nil
}

// write copies local into t's memory at (raddr, rkey).
func (b *Backend) write(t *Backend, local []byte, raddr uint64, rkey uint32, token uint64) error {
	err := t.copyIn(raddr, rkey, local)
	b.applied(t, len(local))
	if err == nil {
		b.landed(t, token)
	}
	return err
}

// PostRead copies from rank's registered memory into local before it
// returns, then completes token.
func (b *Backend) PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error {
	t, err := b.target(rank)
	if err != nil {
		return err
	}
	t.memMu.RLock()
	src, err := t.lookup(rkey, raddr, len(local))
	if err == nil {
		copy(local, src)
	}
	t.memMu.RUnlock()
	b.applied(t, len(local))
	b.compq.Push(core.BackendCompletion{Token: token, OK: err == nil, Err: err})
	return nil
}

// PostFetchAdd atomically adds to the 8-byte word at (raddr, rkey).
func (b *Backend) PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error {
	return b.postAtomic(rank, result, raddr, rkey, false, add, 0, token)
}

// PostCompSwap atomically compare-and-swaps the 8-byte word.
func (b *Backend) PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error {
	return b.postAtomic(rank, result, raddr, rkey, true, compare, swap, token)
}

// postAtomic applies a fetch-add (operand is the addend) or, if cswap,
// a compare-and-swap (operand is the comparand) to the aligned word at
// (raddr, rkey) on rank, placing the prior value in result.
func (b *Backend) postAtomic(rank int, result []byte, raddr uint64, rkey uint32, cswap bool, operand, swap, token uint64) error {
	t, err := b.target(rank)
	if err != nil {
		return err
	}
	if len(result) < atomicLen {
		return fmt.Errorf("shm: atomic result buffer too small")
	}
	if raddr%atomicLen != 0 {
		err = errMisaligned
	} else {
		t.memMu.Lock()
		var w []byte
		if w, err = t.lookup(rkey, raddr, atomicLen); err == nil {
			old := binary.LittleEndian.Uint64(w)
			nv := old + operand
			if cswap {
				nv = old
				if old == operand {
					nv = swap
				}
			}
			binary.LittleEndian.PutUint64(w, nv)
			binary.LittleEndian.PutUint64(result, old)
		}
		t.memMu.Unlock()
	}
	b.applied(t, atomicLen)
	if err == nil {
		b.landed(t, token)
	}
	t.compq.Kick()
	b.compq.Push(core.BackendCompletion{Token: token, OK: err == nil, Err: err})
	return nil
}
