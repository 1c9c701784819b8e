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

// Cluster owns one shm backend per rank plus the bootstrap exchange.
// All ranks live in the calling process.
type Cluster struct {
	backends []*Backend
	exg      *core.Allgather
}

// NewCluster creates an n-rank shared-memory job.
func NewCluster(n int, cfg Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shm: cluster size %d", n)
	}
	c := &Cluster{backends: make([]*Backend, n), exg: core.NewAllgather(n)}
	for r := 0; r < n; r++ {
		c.backends[r] = &Backend{cluster: c, rank: r, size: n, compq: core.NewCompQueue()}
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

// Backend is one rank's shared-memory transport endpoint.
type Backend struct {
	cluster *Cluster
	rank    int
	size    int

	// dom is this rank's registered memory. Initiators apply their ops
	// to the target's domain, under its memory lock, for the duration
	// of each copy.
	dom mem.Domain

	// compq carries completions to this rank's engine and doubles as
	// its wake source: initiators kick it when data lands here.
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
	_ core.Backend      = (*Backend)(nil)
	_ core.StatsBackend = (*Backend)(nil)
)

// Rank returns this endpoint's rank.
func (b *Backend) Rank() int { return b.rank }

// Size returns the job size.
func (b *Backend) Size() int { return b.size }

// Register pins buf into this rank's memory domain.
func (b *Backend) Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	return b.dom.Register(buf)
}

// Deregister removes a registration.
func (b *Backend) Deregister(rb mem.RemoteBuffer) error { return b.dom.Deregister(rb) }

// ApplyLocal performs a loopback DMA write into this rank's own
// registered memory with full validation.
func (b *Backend) ApplyLocal(raddr uint64, rkey uint32, data []byte) error {
	return b.dom.Write(raddr, rkey, data)
}

// WriteActivity returns the domain's write-activity loader (one
// counter for all registrations).
func (b *Backend) WriteActivity(rb mem.RemoteBuffer) (func() uint64, bool) {
	return b.dom.WriteActivity(rb)
}

// Poll reaps completions.
func (b *Backend) Poll(dst []core.BackendCompletion) int {
	return b.compq.Drain(dst)
}

// Notify returns the wake channel: signaled when a completion is
// queued or remote data lands in registered memory.
func (b *Backend) Notify() <-chan struct{} { return b.compq.Wake().Chan() }

// SetWakeSink redirects wake events to fn.
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
	return b.cluster.exg.Exchange(b.rank, local), nil
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

// landed records the trace link of a write or atomic that changed t's
// memory (the domain already bumped t's activity count).
func (b *Backend) landed(t *Backend, token uint64) {
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

// PostWriteBatch lands every write before one wake of the target's
// engine.
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
	err := t.dom.Write(raddr, rkey, local)
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
	err = t.dom.Read(local, raddr, rkey)
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
	if len(result) < mem.AtomicLen {
		return fmt.Errorf("shm: atomic result buffer too small")
	}
	var old uint64
	if cswap {
		old, err = t.dom.CompSwap(raddr, rkey, operand, swap)
	} else {
		old, err = t.dom.FetchAdd(raddr, rkey, operand)
	}
	b.applied(t, mem.AtomicLen)
	if err == nil {
		binary.LittleEndian.PutUint64(result, old)
		b.landed(t, token)
	}
	t.compq.Kick()
	b.compq.Push(core.BackendCompletion{Token: token, OK: err == nil, Err: err})
	return nil
}
