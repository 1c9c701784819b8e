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

// TakeRemote non-blockingly removes and returns the remote completion
// for rid if it has already arrived. It does not drive Progress; pair
// it with a caller-driven progress loop. The collectives layer uses it
// to poll for revocation notices inside post-retry spins.
func (p *Photon) TakeRemote(rid uint64) (Completion, bool) {
	return p.takeMatchAny(rid, false)
}

// ErrWaitAborted is returned by a batched wait when one of the spec's
// AbortRIDs arrived: the wait was cut short not because an awaited
// completion failed but because an out-of-band abort message (a
// collective revocation notice) landed. The consumed completion is in
// WaitSpec.Aborted.
var ErrWaitAborted = errors.New("photon: wait aborted")

// WaitSpec parameterizes a batched wait. The wait returns as soon as
// anything proves the batch cannot or should not complete:
//
//   - a reaped completion carries a non-nil Err (returned immediately,
//     DownRank set to its rank; remaining completions are abandoned);
//   - a rank in Watch latches PeerDown (a wrapped ErrPeerDown naming
//     the rank is returned, DownRank set);
//   - a remote completion for one of AbortRIDs arrives (ErrWaitAborted
//     is returned; Aborted/AbortIdx carry the consumed notice);
//   - Deadline passes (ErrTimeout). A zero Deadline falls back to
//     2×OpTimeout when op deadlines are armed, else waits forever.
//
// A nil spec is a zero one: a deadline only. The spec is caller-owned
// and reusable; the output fields (DownRank, AbortIdx, Aborted) are
// overwritten by each wait that returns an abort-flavored error.
type WaitSpec struct {
	Deadline  time.Time
	Watch     []int    // peer ranks whose PeerDown latch aborts the wait
	AbortRIDs []uint64 // remote RIDs whose arrival aborts the wait

	DownRank int        // set on ErrPeerDown: the rank that latched down
	AbortIdx int        // set on ErrWaitAborted: index into AbortRIDs
	Aborted  Completion // set on ErrWaitAborted: the consumed notice
}

// WaitRemoteAll drives progress until every listed remote completion
// has arrived, removing each from its stream; out[i] receives the
// completion for rids[i]. A zero rid is skipped (its out slot is left
// untouched) — schedules with no-op edges pass holes rather than
// compacting. Unlike len(rids) separate WaitRemote calls, one call
// reaps arrivals in whatever order the network delivers them, so a
// round of r messages costs one network latency, not r. The spec (nil
// for a deadline only) sets when the wait gives up; on any early
// return the completions taken so far are in out.
func (p *Photon) WaitRemoteAll(w *Waiter, rids []uint64, out []Completion, spec *WaitSpec) error {
	return p.waitAll(w, rids, out, spec, false)
}

// WaitLocalAll is WaitRemoteAll for local completions. AbortRIDs are
// always matched against the remote stream (abort notices arrive from
// peers) even though the awaited completions are local.
func (p *Photon) WaitLocalAll(w *Waiter, rids []uint64, out []Completion, spec *WaitSpec) error {
	return p.waitAll(w, rids, out, spec, true)
}

func (p *Photon) waitAll(w *Waiter, rids []uint64, out []Completion, spec *WaitSpec, local bool) error {
	if len(out) < len(rids) {
		return fmt.Errorf("photon: wait-all out slice too short: %d for %d rids", len(out), len(rids))
	}
	pend := w.pend[:0]
	for i, rid := range rids {
		if rid != 0 {
			pend = append(pend, i)
		}
	}
	w.pend = pend
	var zero WaitSpec
	if spec == nil {
		spec = &zero
	}
	return p.wait(w, rids, out, pend, spec, local)
}

// specDeadline is the one deadline rule of every wait: the spec's
// Deadline, else — with op deadlines armed — 2×OpTimeout from now. An
// in-flight op surfaces its error completion within ~OpTimeout plus
// one sweep period, so 2×OpTimeout covers every waiter, including one
// waiting on a remote RID that no live op carries (the peer died
// before posting). Else no deadline.
func specDeadline(p *Photon, spec *WaitSpec) time.Time {
	if !spec.Deadline.IsZero() {
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

// wait is the engine's one blocking reap loop. Each round it drives
// Progress, takes every arrived completion for rids[pend[j]] into the
// matching out slot, then checks the spec, the deadline and Close, and
// parks on w only after a round that handled nothing. pend lists the
// awaited indices and is consumed in place. It returns nil once every
// awaited completion is taken, or at the first completion carrying an
// Err.
func (p *Photon) wait(w *Waiter, rids []uint64, out []Completion, pend []int, spec *WaitSpec, local bool) error {
	deadline := specDeadline(p, spec)
	for len(pend) > 0 {
		n := p.Progress()
		for j := 0; j < len(pend); {
			i := pend[j]
			c, ok := p.takeMatchAny(rids[i], local)
			if !ok {
				j++
				continue
			}
			if c.traced {
				p.traceEv(trace.KindReap, c.RID, "reap.wait")
			}
			out[i] = c
			if c.Err != nil {
				// Fail fast: one failed op condemns the batch.
				spec.DownRank = c.Rank
				return c.Err
			}
			pend[j] = pend[len(pend)-1]
			pend = pend[:len(pend)-1]
			n++
		}
		if len(pend) == 0 {
			break
		}
		if err := p.checkSpec(spec); err != nil {
			return err
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrTimeout
		}
		if p.closed.Load() {
			return ErrClosed
		}
		if n == 0 {
			w.Idle()
		}
	}
	return nil
}
