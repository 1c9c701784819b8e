package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"photon/internal/core"
)

// rma-stream: loopback tcp, both ranks injecting at once. Each rank
// keeps streamWindow ops of the newStreamOp mix outstanding and drives
// its own Progress/PopLocal/PopRemote loop. An op ends at its local
// completion. Receivers check every put and Send payload they are
// notified of; initiators check every get's bytes and FetchAdd's prior
// value.

const (
	streamWindow = 32

	streamFAOff  = streamSrcBytes
	streamPutOff = streamSrcBytes + 4096
	// Put targets come in two pools. Puts of up to 1 KiB (the default
	// eager entry, so the only ones the engine may pack into a ledger
	// entry and place at the target's next progress sweep) land in one
	// of streamSmallRegions 1 KiB regions; larger puts (always written
	// directly, in wire order) in one of streamLargeRegions 64 KiB
	// regions. Op seq takes region seq%count of its pool.
	//
	// Reuse is safe only when an earlier put to the region is placed
	// before a later one lands. A packed put is not placed until the
	// target sweeps its eager ledger, so a later direct put to the same
	// bytes can land first and then be overwritten. Keeping packed puts
	// out of the large pool rules that out there; in the small pool a
	// region is reused only 1024 ops later, and by then the initiator
	// has posted far more eager entries than the ledger's 64 credits
	// allow unconsumed, so the earlier put has been placed.
	streamSmallMax     = 1 << 10
	streamSmallRegions = 1024
	streamLargeRegions = 128
	streamLargeOff     = streamPutOff + streamSmallRegions*streamSmallMax
	streamBufBytes     = streamLargeOff + streamLargeRegions*streamMaxBytes
)

// putRegion returns the offset and length of the region op seq of the
// given size writes at its target.
func putRegion(seq uint64, size int) (off, n int) {
	if size <= streamSmallMax {
		return streamPutOff + int(seq%streamSmallRegions)*streamSmallMax, streamSmallMax
	}
	return streamLargeOff + int(seq%streamLargeRegions)*streamMaxBytes, streamMaxBytes
}

// A stream RID carries the window slot between the sequence number and
// the kind, so a local completion finds its slot without a lookup.
func streamRID(seq uint64, slot, kind int) uint64 {
	return (seq<<5|uint64(slot))<<4 | uint64(kind)
}

func streamSeq(r uint64) uint64 { return r >> 9 }
func streamSlotOf(r uint64) int { return int(r>>4) & 31 }

type stream struct {
	e     *env
	seed  uint64
	tape  tape
	src   [ranks]tape // each rank's static source region, as every rank derives it
	seq   [ranks]uint64
	faSum [ranks]uint64 // value of rank r's counter at its peer
}

func streamSrc(seed uint64, r int) tape { return newTape(seed^uint64(r+1)<<40, streamSrcBytes) }

func streamBufs(seed uint64) [][]byte {
	bufs := make([][]byte, ranks)
	for r := range bufs {
		bufs[r] = make([]byte, streamBufBytes)
		copy(bufs[r], streamSrc(seed, r))
	}
	return bufs
}

func newStream(e *env, seed uint64) *stream {
	w := &stream{e: e, seed: seed, tape: newTape(seed, streamTapeBytes)}
	for r := range w.src {
		w.src[r] = streamSrc(seed, r)
		w.seq[r] = 1
	}
	return w
}

func (w *stream) phase(dur time.Duration, traced bool) *phase {
	return runPhase(w.e, dur, traced, func(p *phase) {
		onRanks(func(r int) { w.rank(p, r) })
	})
}

type streamSlot struct {
	seq   uint64
	op    streamOp
	t0    time.Time
	prior uint64 // FetchAdd: expected prior value
	buf   []byte
}

// rankLoop is one rank's state for a phase.
type rankLoop struct {
	w        *stream
	r, peer  int
	ph       *core.Photon
	rs       *rankStats
	slots    [streamWindow]streamSlot
	free     []int
	inflight int

	remoteSent   int64 // my ops that notify the peer
	remoteSeen   int64 // the peer's ops that notified me
	peerDone     bool
	peerAnnounce int64
	doneSent     bool
	doneBuf      []byte
}

func (w *stream) rank(p *phase, r int) {
	l := &rankLoop{w: w, r: r, peer: 1 - r, ph: w.e.phs[r], rs: p.ranks[r], doneBuf: make([]byte, 8)}
	for i := range l.slots {
		l.slots[i].buf = make([]byte, streamMaxBytes)
		l.free = append(l.free, i)
	}
	tr := l.rs.tr
	pk := newParker(l.ph.BackendNotify())
	defer pk.stop()
	stopping := false
	start := time.Now()
	last := start
	for turn := uint64(0); ; turn++ {
		tr.begin(turn)
		now := time.Now()
		l.rs.inflightArea += float64(l.inflight) * float64(now.Sub(last))
		last = now
		if !stopping && (!now.Before(p.deadline) || l.rs.failed > 0) {
			stopping = true
		}
		active := false
		if !stopping {
			active = l.postWindow()
		}
		if progress(l.ph, l.rs, tr) > 0 {
			active = true
		}
		gotLocal, gotRemote := l.popLocal(), l.popRemote()
		if gotLocal || gotRemote {
			active = true
		}
		if stopping && l.inflight == 0 && !l.doneSent {
			l.sendDone()
		}
		if l.doneSent && l.peerDone && l.remoteSeen == l.peerAnnounce {
			tr.end()
			break
		}
		if !active {
			s := tr.now()
			pk.park()
			tr.child(spPark, s)
		}
		tr.end()
	}
	l.rs.loopNS = int64(time.Since(start))
}

// postWindow fills free slots with new ops until the window is full or
// the engine pushes back; it reports whether anything was posted.
func (l *rankLoop) postWindow() bool {
	w, tr := l.w, l.rs.tr
	dst := w.e.descs[l.r][l.peer]
	posted := false
	for len(l.free) > 0 {
		si := l.free[len(l.free)-1]
		sl := &l.slots[si]
		seq := w.seq[l.r]
		op := newStreamOp(w.seed, l.r, seq)
		if sl.seq != seq && (op.kind == kPut || op.kind == kSend) {
			w.tape.fillPayload(sl.buf[:op.size], seq, op.tapeOff)
		}
		sl.seq = seq // a retried op keeps its payload
		id := streamRID(seq, si, op.kind)
		s := tr.now()
		var err error
		switch op.kind {
		case kPut:
			off, _ := putRegion(seq, op.size)
			err = l.ph.PutWithCompletion(l.peer, sl.buf[:op.size], dst, uint64(off), id, id)
		case kGet:
			err = l.ph.GetWithCompletion(l.peer, sl.buf[:op.size], dst, uint64(op.srcOff), id, id)
		case kFA:
			err = l.ph.FetchAdd(l.peer, dst, streamFAOff, op.add, id)
		case kSend:
			err = l.ph.Send(l.peer, sl.buf[:op.size], id, id)
		}
		tr.child(spPost, s)
		if l.rs.posted(err) {
			return posted
		}
		l.rs.attempted++
		if err != nil {
			l.rs.fail(fmt.Errorf("post op %d: %w", seq, err))
			return posted
		}
		posted = true
		sl.op, sl.t0 = op, time.Now()
		if op.kind == kFA {
			sl.prior = w.faSum[l.r]
			w.faSum[l.r] += op.add
		} else {
			l.remoteSent++
		}
		l.free = l.free[:len(l.free)-1]
		l.inflight++
		w.seq[l.r]++
	}
	return posted
}

// popLocal completes ops whose local completions have arrived.
func (l *rankLoop) popLocal() bool {
	tr := l.rs.tr
	got := false
	for {
		s := tr.now()
		c, ok := l.ph.PopLocal()
		tr.child(spPop, s)
		if !ok {
			return got
		}
		got = true
		si := streamSlotOf(c.RID)
		sl := &l.slots[si]
		if streamSeq(c.RID) != sl.seq {
			l.rs.fail(fmt.Errorf("local completion %#x for slot holding op %d", c.RID, sl.seq))
			continue
		}
		var err error
		switch {
		case c.Err != nil:
			err = c.Err
		case sl.op.kind == kGet:
			want := l.w.src[l.peer][sl.op.srcOff : sl.op.srcOff+sl.op.size]
			if !bytes.Equal(sl.buf[:sl.op.size], want) {
				err = fmt.Errorf("op %d: get of %d B at %d mismatch", sl.seq, sl.op.size, sl.op.srcOff)
			}
		case sl.op.kind == kFA && c.Value != sl.prior:
			err = fmt.Errorf("op %d: fetch-add prior %d, want %d", sl.seq, c.Value, sl.prior)
		}
		if err != nil {
			l.rs.fail(err)
		} else {
			l.rs.complete(sl.t0, sl.op.size)
		}
		l.free = append(l.free, si)
		l.inflight--
	}
}

// popRemote checks the peer's ops that notified this rank.
func (l *rankLoop) popRemote() bool {
	tr := l.rs.tr
	got := false
	for {
		s := tr.now()
		c, ok := l.ph.PopRemote()
		tr.child(spPop, s)
		if !ok {
			return got
		}
		got = true
		seq := streamSeq(c.RID)
		var err error
		switch kind := ridKind(c.RID); {
		case c.Err != nil:
			err = c.Err
		case kind == kDone:
			if len(c.Data) != 8 {
				err = fmt.Errorf("done marker of %d B", len(c.Data))
				break
			}
			l.peerDone = true
			l.peerAnnounce = int64(binary.LittleEndian.Uint64(c.Data))
			continue
		case kind == kPut:
			err = l.checkPut(seq)
		case kind == kSend:
			op := newStreamOp(l.w.seed, l.peer, seq)
			if op.kind != kSend || len(c.Data) != op.size || !l.w.tape.checkPayload(c.Data, seq, op.tapeOff) {
				err = fmt.Errorf("peer op %d: send payload mismatch", seq)
			}
		case kind == kGet:
		default:
			err = fmt.Errorf("unexpected remote completion %#x", c.RID)
		}
		l.remoteSeen++
		if err != nil {
			l.rs.fail(err)
		}
	}
}

// checkPut checks the region the peer's put seq wrote. The region may
// already hold a later put of the peer to it; then that put's payload
// is checked instead. Older data means the put was not visible when
// its completion surfaced.
func (l *rankLoop) checkPut(seq uint64) error {
	op := newStreamOp(l.w.seed, l.peer, seq)
	if op.kind != kPut {
		return fmt.Errorf("peer op %d notified as a put", seq)
	}
	off, n := putRegion(seq, op.size)
	lk := l.w.e.lks[l.r]
	lk.Lock()
	defer lk.Unlock()
	region := l.w.e.bufs[l.r][off : off+n]
	h := binary.LittleEndian.Uint64(region)
	if h < seq {
		return fmt.Errorf("peer put %d: region holds op %d", seq, h)
	}
	if h != seq {
		op = newStreamOp(l.w.seed, l.peer, h)
		if o, _ := putRegion(h, op.size); op.kind != kPut || o != off {
			return fmt.Errorf("peer put %d: region holds op %d", seq, h)
		}
	}
	if !l.w.tape.checkPayload(region[:op.size], h, op.tapeOff) {
		return fmt.Errorf("peer put %d: payload of op %d mismatch", h, seq)
	}
	return nil
}

// sendDone tells the peer how many of its remote completions to expect.
func (l *rankLoop) sendDone() {
	binary.LittleEndian.PutUint64(l.doneBuf, uint64(l.remoteSent))
	err := l.ph.Send(l.peer, l.doneBuf, 0, rid(0, kDone))
	if l.rs.posted(err) {
		return
	}
	if err != nil {
		l.rs.fail(fmt.Errorf("done marker: %w", err))
	}
	l.doneSent = true
}
