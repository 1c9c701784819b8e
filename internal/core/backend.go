package core

import (
	"errors"
	"sync"
	"time"

	"photon/internal/errs"
	"photon/internal/mem"
)

// Errors shared by Photon and its backends.
var (
	// ErrWouldBlock is returned by non-blocking operations that cannot
	// make progress right now (no ledger credits, transport send queue
	// full). The caller should drive Progress and retry, or use the
	// blocking wrappers.
	ErrWouldBlock = errors.New("photon: operation would block")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("photon: closed")
	// ErrBadRank is returned for out-of-range peer ranks.
	ErrBadRank = errors.New("photon: rank out of range")
	// ErrTooLarge is returned when a payload exceeds a protocol limit.
	ErrTooLarge = errors.New("photon: payload too large")
	// ErrPeerDown is returned (or carried by error completions) when a
	// peer has been declared dead: its transport connection could not
	// be recovered within the reconnect budget, or the failure detector
	// latched it down. Ops toward a down peer fail fast rather than
	// waiting out OpTimeout. Aliases errs.ErrPeerDown so layers below
	// core (backends) and above (collectives) match the same sentinel.
	ErrPeerDown = errs.ErrPeerDown
)

// PeerHealth is the liveness state of one peer as seen by the failure
// detector: healthy → suspect (no traffic for SuspectAfter) → down
// (reconnect budget exhausted; terminal), with recovering covering the
// window where the transport has lost the connection and is actively
// re-establishing it.
type PeerHealth int32

// PeerHealth states.
const (
	PeerHealthy PeerHealth = iota
	PeerSuspect
	PeerRecovering
	PeerDown
)

// String names the health state for logs and gauges.
func (h PeerHealth) String() string {
	switch h {
	case PeerHealthy:
		return "healthy"
	case PeerSuspect:
		return "suspect"
	case PeerRecovering:
		return "recovering"
	case PeerDown:
		return "down"
	}
	return "unknown"
}

// HealthBackend is an optional Backend extension implemented by
// transports with a failure detector. ConfigureLiveness arms it:
// the backend emits heartbeat traffic on links idle longer than the
// heartbeat interval (piggyback-suppressed when data is flowing) and
// reports a peer suspect once nothing has been received from it for
// suspectAfter. PeerHealth must be cheap and callable concurrently:
// the progress engine polls it to drive the core peer state machine.
// Backends without liveness (in-process fabrics) simply omit this;
// the engine then relies on OpTimeout alone.
type HealthBackend interface {
	ConfigureLiveness(heartbeat, suspectAfter time.Duration)
	PeerHealth(rank int) PeerHealth
}

// BackendCompletion reports one finished backend operation to the
// Photon engine. Token is the value the engine passed when posting.
type BackendCompletion struct {
	Token uint64
	OK    bool
	Err   error
}

// Backend is the transport Photon runs over: one-sided operations plus
// registered memory, an out-of-band bootstrap exchange, and the event
// plumbing the progress engine paces itself by. Three transports
// implement it: backend/vsim (simulated IB verbs over the in-process
// fabric), backend/tcp (real sockets, one-sided ops emulated by a
// remote agent) and backend/shm (same-address-space peers; the
// initiator applies each op itself) — mirroring the original's verbs /
// uGNI / libfabric / TCP / CMA backend set. Every method is required;
// liveness, clock offsets and transport counters are the only optional
// extensions (HealthBackend, ClockBackend, StatsBackend).
//
// Semantics the engine relies on:
//
//   - Operations posted toward one rank execute and become remotely
//     visible in posting order (RC queue-pair ordering).
//   - A signaled operation's completion (reported by Poll with its
//     token) implies every earlier operation toward the same rank has
//     completed too.
//   - Post* never waits on a peer's progress; it returns ErrWouldBlock
//     under transient resource exhaustion. A transport that applies the
//     op inside the post call (shm) may wait for the target's bounded
//     critical sections under the target's registration lock — the
//     engine's ledger sweep, an application read — and nothing else.
//   - No caller may post while holding a registration locker (the
//     sync.Locker Register returns). Two ranks posting toward each
//     other while each holds its own locker would each wait for the
//     other's lock. Read under the locker, release it, then post.
//   - PostWrite and PostWriteBatch snapshot local before returning (the
//     doorbell-DMA model): once the post returns nil the caller may
//     immediately reuse or recycle local. PostRead and the atomics are
//     the opposite — local is the result destination and stays owned
//     by the backend until the operation's completion is reported.
//     The engine's entry-buffer pool relies on this to recycle
//     scratch buffers at post time rather than completion time.
//   - Every event that may make engine progress possible — a
//     completion queued for Poll, remote data landing in registered
//     memory — kicks the wake sink (or, before one is installed, the
//     Notify channel), and every applied remote write or atomic
//     advances the WriteActivity count before that kick.
type Backend interface {
	NotifyBackend

	// Rank and Size identify this process in the job.
	Rank() int
	Size() int

	// Register pins buf for remote access, returning its descriptor
	// and a read-locker that callers must hold while polling bytes
	// that remote peers write into buf, and must release before
	// posting any operation.
	Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error)
	// Deregister releases a registration by its descriptor.
	Deregister(rb mem.RemoteBuffer) error
	// WriteActivity returns a loader for a monotonic count of remote
	// writes and atomics applied to the registration rb (ok is false
	// when rb is not registered). The engine uses it as a DMA event
	// counter: ledger rings are swept only when the count has moved,
	// so an idle or spinning poller never contends with the
	// transport's memory lock.
	WriteActivity(rb mem.RemoteBuffer) (func() uint64, bool)

	// PostWrite starts a one-sided write of local into rank's memory
	// at (raddr, rkey). If signaled, Poll later reports token.
	PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error
	// PostWriteBatch posts a burst of writes toward one rank with a
	// single doorbell-style call. Requests are posted in order; the
	// call stops at the first request that cannot be posted and
	// returns how many were accepted (the error, if any, describes the
	// first failure). A short count with a nil or ErrWouldBlock error
	// means the caller should retry the tail later, exactly like a
	// per-op ErrWouldBlock.
	PostWriteBatch(rank int, reqs []WriteReq) (int, error)
	// PostRead starts a one-sided read from rank's memory into local;
	// always signaled.
	PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error
	// PostFetchAdd atomically adds add to the 8-byte word at
	// (raddr, rkey) on rank, placing the prior value in result.
	PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error
	// PostCompSwap atomically compare-and-swaps the 8-byte word,
	// placing the prior value in result.
	PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error

	// ApplyLocal performs a loopback DMA write into this rank's own
	// registered memory, with the same rkey/bounds/access validation a
	// remote write gets. The engine uses it to place packed-put
	// payloads that arrived inside ledger entries.
	ApplyLocal(raddr uint64, rkey uint32, data []byte) error

	// Poll reaps pending backend completions into dst, returning the
	// count. It must not block.
	Poll(dst []BackendCompletion) int
	// SetWakeSink redirects the backend's activity events from the
	// Notify channel to a direct call of fn on the event-producing
	// goroutine. The engine installs its fan-out here, so one backend
	// event wakes every shard runner and every parked waiter with no
	// scheduler hop in between. fn is treated exactly like a channel
	// kick: non-blocking, callable from any goroutine, coalescing.
	// Backends built on WakeChan get this for free.
	SetWakeSink(fn func())

	// Exchange is the out-of-band bootstrap allgather: every rank
	// contributes a blob and receives all blobs indexed by rank. It
	// is collective and blocking.
	Exchange(local []byte) ([][]byte, error)

	// Close releases transport resources.
	Close() error
}

// WriteReq is one element of a PostWriteBatch. Fields mirror
// PostWrite's parameters; the same snapshot-at-post buffer contract
// applies to Local.
type WriteReq struct {
	Local      []byte
	RemoteAddr uint64
	RKey       uint32
	Token      uint64
	Signaled   bool
}

// NotifyBackend is the event channel every Backend carries: Notify
// returns a channel (capacity 1, signaled with non-blocking sends)
// that receives a token whenever backend activity may have made engine
// progress possible, until SetWakeSink redirects those events. A
// single token can coalesce many events; consumers must re-poll after
// every wakeup and never rely on one token per event. Raw-backend
// harnesses that drive Poll without an engine park on it.
type NotifyBackend interface {
	Notify() <-chan struct{}
}

// ClockBackend is an optional Backend extension implemented by
// transports that estimate per-peer clock offsets (the TCP backend
// closes NTP-style exchanges over its heartbeat frames). ClockOffset
// reports the peer's wall clock minus the local one in nanoseconds,
// with the round-trip time of the minimum-RTT sample that produced the
// estimate; ok is false until at least one exchange has completed.
// The merged trace exporter consumes these offsets to place events
// from different processes on one timeline.
type ClockBackend interface {
	ClockOffset(rank int) (offsetNS, rttNS int64, ok bool)
}

// StatsBackend is an optional Backend extension: TransportStats yields
// transport-level data-path counters as named int64 gauges (syscall
// coalescing, ack piggybacking, queue behavior — whatever the
// transport measures about itself). Photon.Metrics merges them into
// its gauge snapshot so transport behavior is observable alongside
// engine counters. Implementations must tolerate concurrent callers
// and must not block.
type StatsBackend interface {
	TransportStats(yield func(name string, value int64))
}
