package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/trace"
)

// recvTab is the one-shot posted-receive table: buffers registered by
// RID that inbound message deliveries (packed and rendezvous) land in
// directly, skipping the middleware's own allocation and staging copy.
// It exists for schedule-driven layers (collectives) that know exactly
// which RIDs will arrive and want arrivals delivered into caller-owned
// memory once.
type recvTab struct {
	// count gates the poll-path lookup: when no receives are posted,
	// consulting the table costs one atomic load and no lock.
	count atomic.Int64

	//photon:lock recvtab 35
	mu   sync.Mutex
	bufs map[uint64][]byte
}

func (t *recvTab) init() { t.bufs = make(map[uint64][]byte) }

// post registers buf for rid. The rid must not already be posted.
func (t *recvTab) post(rid uint64, buf []byte) error {
	t.mu.Lock()
	if _, dup := t.bufs[rid]; dup {
		t.mu.Unlock()
		return fmt.Errorf("photon: receive already posted for rid %#x", rid)
	}
	t.bufs[rid] = buf
	t.mu.Unlock()
	t.count.Add(1)
	return nil
}

// take removes and returns the posted buffer for rid if one exists and
// is large enough for need bytes. Undersized postings are left in
// place (the arrival falls back to middleware-owned delivery and the
// caller reclaims the posting with cancel). Called from the poll path,
// but the count load gates the mutex: with nothing posted the cost is
// one atomic load.
func (t *recvTab) take(rid uint64, need int) ([]byte, bool) {
	if t.count.Load() == 0 {
		return nil, false
	}
	t.mu.Lock()
	b, ok := t.bufs[rid]
	if !ok || len(b) < need {
		t.mu.Unlock()
		return nil, false
	}
	delete(t.bufs, rid)
	t.mu.Unlock()
	t.count.Add(-1)
	return b[:need], true
}

// restore re-registers a buffer taken by take when the posted delivery
// could not be started (transport busy); the next attempt finds it
// again.
func (t *recvTab) restore(rid uint64, buf []byte) {
	t.mu.Lock()
	t.bufs[rid] = buf
	t.mu.Unlock()
	t.count.Add(1)
}

// cancel removes a posting that was never consumed.
func (t *recvTab) cancel(rid uint64) bool {
	if t.count.Load() == 0 {
		return false
	}
	t.mu.Lock()
	_, ok := t.bufs[rid]
	if ok {
		delete(t.bufs, rid)
	}
	t.mu.Unlock()
	if ok {
		t.count.Add(-1)
	}
	return ok
}

// PostRecv registers a one-shot posted receive: when a message delivery
// (packed eager or rendezvous) arrives carrying rid, its payload is
// placed directly into buf — no middleware allocation, no staging copy
// — and the harvested remote completion's Data aliases buf.
//
// The posting is consumed by the first matching arrival whose payload
// fits in buf (rendezvous reads land buf[:size]; packed deliveries
// surface Data = buf[:payloadLen]). An arrival larger than buf ignores
// the posting and is delivered middleware-owned as usual. A message
// that arrives before PostRecv is likewise delivered middleware-owned:
// callers that cannot order the post before the arrival check
// CancelRecv after harvesting — if it returns true the posting went
// unused and the completion's Data is a middleware-owned copy to fold
// into buf.
//
// buf is owned by the engine until the posting is consumed or
// canceled.
func (p *Photon) PostRecv(rid uint64, buf []byte) error {
	if rid == 0 {
		return fmt.Errorf("photon: posted receive needs a non-zero rid")
	}
	if p.closed.Load() {
		return ErrClosed
	}
	return p.recvs.post(rid, buf)
}

// CancelRecv withdraws a posted receive, reporting whether the posting
// was still unconsumed (true: the engine no longer references buf;
// false: an arrival already consumed it).
func (p *Photon) CancelRecv(rid uint64) bool {
	return p.recvs.cancel(rid)
}

// Waiter paces blocking wait loops across calls: it keeps the notifier
// subscription and park timer of the engine's internal idle waiter
// alive between waits, so schedule-driven callers (collectives) running
// thousands of rounds do not re-subscribe per round. The zero value is
// not usable; obtain one from NewWaiter and Release it when done.
//
// A Waiter is not safe for concurrent use.
type Waiter struct {
	w    idleWaiter
	pend []int // WaitAll index scratch, reused across calls
}

// NewWaiter creates a reusable wait pacer bound to this instance.
func NewWaiter(p *Photon) *Waiter {
	return &Waiter{w: idleWaiter{p: p}}
}

// Idle parks the caller until backend activity suggests progress is
// possible (or a grace period passes). Call it after a Progress round
// that handled nothing; re-poll after every return.
func (w *Waiter) Idle() { w.w.wait() }

// Release retires the waiter's notifier subscription and timer. The
// waiter may be reused afterwards (the next Idle resubscribes).
func (w *Waiter) Release() { w.w.stop() }

// WaitRemoteAll drives progress until every listed remote completion
// has arrived, removing each from its stream; out[i] receives the
// completion for rids[i]. A zero rid is skipped (its out slot is left
// untouched) — schedules with no-op edges pass holes rather than
// compacting. Unlike len(rids) separate WaitRemote calls, one call
// reaps arrivals in whatever order the network delivers them, so a
// round of r messages costs one network latency, not r.
//
// A non-positive timeout waits forever (bounded by 2×OpTimeout when op
// deadlines are armed). On timeout the already-arrived completions are
// in out and ErrTimeout is returned. When every completion arrived,
// the first non-nil Completion.Err (in rids order) is returned, so
// callers checking only the error still observe per-op failures.
func (p *Photon) WaitRemoteAll(w *Waiter, rids []uint64, out []Completion, timeout time.Duration) error {
	return p.waitAllMatched(w, rids, out, timeout, false)
}

// WaitLocalAll is WaitRemoteAll for local completions.
func (p *Photon) WaitLocalAll(w *Waiter, rids []uint64, out []Completion, timeout time.Duration) error {
	return p.waitAllMatched(w, rids, out, timeout, true)
}

func (p *Photon) waitAllMatched(w *Waiter, rids []uint64, out []Completion, timeout time.Duration, local bool) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	} else if p.opTimeoutNS > 0 {
		// Same bound as waitMatch: with op deadlines armed, every
		// in-flight op surfaces an error completion within ~2×OpTimeout.
		deadline = time.Now().Add(2 * time.Duration(p.opTimeoutNS))
	}
	return p.waitAll(w, rids, out, deadline, nil, local)
}

// TakeRemote non-blockingly removes and returns the remote completion
// for rid if it has already arrived. It does not drive Progress; pair
// it with a caller-driven progress loop. The collectives layer uses it
// to poll for revocation notices inside post-retry spins.
func (p *Photon) TakeRemote(rid uint64) (Completion, bool) {
	return p.takeMatchAny(rid, false)
}

// ErrWaitAborted is returned by the spec-carrying waits when one of the
// spec's AbortRIDs arrived: the wait was cut short not because an
// awaited completion failed but because an out-of-band abort message
// (a collective revocation notice) landed. The consumed completion is
// in WaitSpec.Aborted.
var ErrWaitAborted = errors.New("photon: wait aborted")

// WaitSpec parameterizes a failure-aware batched wait. Unlike the plain
// WaitRemoteAll/WaitLocalAll — which only give up on a wall-clock bound
// and surface per-op errors after every completion arrived — a wait
// carrying a spec returns as soon as anything proves the batch cannot
// or should not complete:
//
//   - a reaped completion carries a non-nil Err (returned immediately;
//     remaining completions are abandoned);
//   - a rank in Watch latches PeerDown (a wrapped ErrPeerDown naming
//     the rank is returned, DownRank set);
//   - a remote completion for one of AbortRIDs arrives (ErrWaitAborted
//     is returned; Aborted/AbortIdx carry the consumed notice);
//   - Deadline passes (ErrTimeout). A zero Deadline falls back to
//     2×OpTimeout when op deadlines are armed, else waits forever.
//
// The spec is caller-owned and reusable; the output fields (DownRank,
// AbortIdx, Aborted) are overwritten by each wait that returns an
// abort-flavored error.
type WaitSpec struct {
	Deadline  time.Time
	Watch     []int    // peer ranks whose PeerDown latch aborts the wait
	AbortRIDs []uint64 // remote RIDs whose arrival aborts the wait

	DownRank int        // set on ErrPeerDown: the rank that latched down
	AbortIdx int        // set on ErrWaitAborted: index into AbortRIDs
	Aborted  Completion // set on ErrWaitAborted: the consumed notice
}

// WaitRemoteAllSpec is WaitRemoteAll plus the spec's abort conditions.
func (p *Photon) WaitRemoteAllSpec(w *Waiter, rids []uint64, out []Completion, spec *WaitSpec) error {
	return p.waitAll(w, rids, out, specDeadline(p, spec), spec, false)
}

// WaitLocalAllSpec is WaitLocalAll plus the spec's abort conditions.
// AbortRIDs are always matched against the remote stream (abort notices
// arrive from peers) even though the awaited completions are local.
func (p *Photon) WaitLocalAllSpec(w *Waiter, rids []uint64, out []Completion, spec *WaitSpec) error {
	return p.waitAll(w, rids, out, specDeadline(p, spec), spec, true)
}

func specDeadline(p *Photon, spec *WaitSpec) time.Time {
	if spec != nil && !spec.Deadline.IsZero() {
		return spec.Deadline
	}
	if p.opTimeoutNS > 0 {
		return time.Now().Add(2 * time.Duration(p.opTimeoutNS))
	}
	return time.Time{}
}

// checkSpec evaluates the spec's out-of-band abort conditions: an
// arrived abort RID, then a watched rank latched down. Returns nil when
// the wait should keep going.
func (p *Photon) checkSpec(spec *WaitSpec) error {
	for i, ar := range spec.AbortRIDs {
		if ar == 0 {
			continue
		}
		if c, ok := p.takeMatchAny(ar, false); ok {
			spec.AbortIdx = i
			spec.Aborted = c
			return ErrWaitAborted
		}
	}
	for _, r := range spec.Watch {
		if p.PeerHealthState(r) == PeerDown {
			spec.DownRank = r
			return fmt.Errorf("photon: rank %d: %w", r, ErrPeerDown)
		}
	}
	return nil
}

func (p *Photon) waitAll(w *Waiter, rids []uint64, out []Completion, deadline time.Time, spec *WaitSpec, local bool) error {
	if len(out) < len(rids) {
		return fmt.Errorf("photon: wait-all out slice too short: %d for %d rids", len(out), len(rids))
	}
	pend := w.pend[:0]
	for i, rid := range rids {
		if rid != 0 {
			pend = append(pend, i)
		}
	}
	for len(pend) > 0 {
		n := p.Progress()
		took := false
		for j := 0; j < len(pend); {
			i := pend[j]
			if c, ok := p.takeMatchAny(rids[i], local); ok {
				if c.traced {
					p.traceEv(trace.KindReap, c.RID, "reap.waitall")
				}
				out[i] = c
				pend[j] = pend[len(pend)-1]
				pend = pend[:len(pend)-1]
				took = true
				if spec != nil && c.Err != nil {
					// Fail fast: one failed op condemns the batch; the
					// abandoned completions belong to a collective that
					// is about to be revoked anyway.
					w.pend = pend[:0]
					spec.DownRank = c.Rank
					return c.Err
				}
				continue
			}
			j++
		}
		if len(pend) == 0 {
			break
		}
		if spec != nil {
			if err := p.checkSpec(spec); err != nil {
				w.pend = pend[:0]
				return err
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			w.pend = pend[:0]
			return ErrTimeout
		}
		if p.closed.Load() {
			w.pend = pend[:0]
			return ErrClosed
		}
		if n == 0 && !took {
			w.Idle()
		}
	}
	w.pend = pend[:0]
	for i, rid := range rids {
		if rid != 0 && out[i].Err != nil {
			if spec != nil {
				spec.DownRank = out[i].Rank
			}
			return out[i].Err
		}
	}
	return nil
}
