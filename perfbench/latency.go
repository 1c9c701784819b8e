package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"photon/internal/core"
)

// rma-latency: shm, one op outstanding. Rank 0 issues the seeded mix
// of newLatOp; rank 1 runs a message-driven progress loop that answers
// every put and Send with an 8 B reply put. A put or Send ends when
// its reply lands; a get or FetchAdd ends at its local completion.

// Layout of each rank's registered buffer.
const (
	latWordOff  = 0   // rank 1: target of rank 0's puts; rank 0: target of replies
	latFAOff    = 64  // rank 1: FetchAdd counter
	latSrcOff   = 128 // rank 1: static source region for gets
	latBufBytes = latSrcOff + latSrcBytes
	latTapeLen  = 8 << 10
)

type latency struct {
	e     *env
	seed  uint64
	tape  tape
	seq   uint64 // next op sequence number
	faSum uint64 // value of rank 1's counter: rank 0 is its only writer
}

func latencyBufs(seed uint64) [][]byte {
	src := newTape(seed^0x5c, latSrcBytes)
	bufs := make([][]byte, ranks)
	for r := range bufs {
		bufs[r] = make([]byte, latBufBytes)
		copy(bufs[r][latSrcOff:], src)
	}
	return bufs
}

func newLatency(e *env, seed uint64) *latency {
	return &latency{e: e, seed: seed, tape: newTape(seed, latTapeLen), seq: 1}
}

// sendTapeOff places op seq's Send payload on the tape.
func (w *latency) sendTapeOff(seq uint64) int {
	return int(opHash(w.seed, 0, seq, 4)%uint64(latTapeLen-latSendBytes)) &^ 7
}

func (w *latency) phase(dur time.Duration, traced bool) *phase {
	return runPhase(w.e, dur, traced, func(p *phase) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.respond(p.ranks[1])
		}()
		w.initiate(p, p.ranks[0])
		wg.Wait()
	})
}

// initiate is rank 0: it issues ops until the deadline, then tells the
// responder to stop.
func (w *latency) initiate(p *phase, rs *rankStats) {
	ph, tr := w.e.phs[0], rs.tr
	word, getBuf, sendBuf := make([]byte, 8), make([]byte, 8), make([]byte, latSendBytes)
	src := w.e.bufs[0][latSrcOff:] // rank 1 holds the same bytes
	for rs.failed == 0 && time.Now().Before(p.deadline) {
		seq := w.seq
		w.seq++
		op := newLatOp(w.seed, seq)
		rs.attempted++
		tr.begin(seq)
		t0 := time.Now()
		var err error
		payload := 8
		switch op.kind {
		case kPut, kSend:
			if op.kind == kPut {
				binary.LittleEndian.PutUint64(word, seq)
			} else {
				w.tape.fillPayload(sendBuf, seq, w.sendTapeOff(seq))
				payload = latSendBytes
			}
			if err = w.post(ph, rs, op, seq, word, sendBuf, getBuf); err != nil {
				break
			}
			s := tr.now()
			_, err = ph.WaitRemote(rid(seq, kRep), waitTimeout)
			tr.child(spWait, s)
			if err == nil && w.readWord(0) != ^seq {
				err = fmt.Errorf("op %d: reply word holds %#x", seq, w.readWord(0))
			}
			payload += 8
		case kGet, kFA:
			if err = w.post(ph, rs, op, seq, word, sendBuf, getBuf); err != nil {
				break
			}
			s := tr.now()
			var c core.Completion
			c, err = ph.WaitLocal(rid(seq, op.kind), waitTimeout)
			tr.child(spWait, s)
			switch {
			case err != nil:
			case c.Err != nil:
				err = c.Err
			case op.kind == kGet && !bytes.Equal(getBuf, src[op.srcOff:op.srcOff+8]):
				err = fmt.Errorf("op %d: get at %d read %x", seq, op.srcOff, getBuf)
			case op.kind == kFA && c.Value != w.faSum:
				err = fmt.Errorf("op %d: fetch-add prior %d, want %d", seq, c.Value, w.faSum)
			}
			if op.kind == kFA {
				w.faSum += op.add
			}
		}
		if err != nil {
			tr.end()
			rs.fail(err)
			break
		}
		rs.complete(t0, payload)
		tr.end()
	}
	// The stop marker rides the eager path like any Send.
	for {
		err := ph.Send(1, word, 0, rid(0, kDone))
		if !rs.posted(err) {
			if err != nil {
				rs.fail(fmt.Errorf("stop: %w", err))
			}
			return
		}
		progress(ph, rs, nil)
	}
}

// post issues op, retrying while the engine reports ErrWouldBlock.
func (w *latency) post(ph *core.Photon, rs *rankStats, op latOp, seq uint64, word, sendBuf, getBuf []byte) error {
	peer, tr := w.e.descs[0][1], rs.tr
	for {
		s := tr.now()
		var err error
		switch op.kind {
		case kPut:
			err = ph.PutWithCompletion(1, word, peer, latWordOff, 0, rid(seq, kPut))
		case kSend:
			err = ph.Send(1, sendBuf, 0, rid(seq, kSend))
		case kGet:
			err = ph.GetWithCompletion(1, getBuf, peer, uint64(latSrcOff+op.srcOff), rid(seq, kGet), 0)
		case kFA:
			err = ph.FetchAdd(1, peer, latFAOff, op.add, rid(seq, kFA))
		}
		tr.child(spPost, s)
		if !rs.posted(err) {
			return err
		}
		progress(ph, rs, tr)
	}
}

// readWord reads the 8-byte word rank r's peer writes at latWordOff.
func (w *latency) readWord(r int) uint64 {
	w.e.lks[r].Lock()
	defer w.e.lks[r].Unlock()
	return binary.LittleEndian.Uint64(w.e.bufs[r][latWordOff:])
}

// respond is rank 1: it checks each put and Send and replies, until
// the stop marker arrives. Its calls are not traced: they sit on every
// op's blocking path, which the initiator's spans already cover.
func (w *latency) respond(rs *rankStats) {
	ph, peer := w.e.phs[1], w.e.descs[1][0]
	reply := make([]byte, 8)
	pk := newParker(ph.BackendNotify())
	defer pk.stop()
	for {
		n := progress(ph, rs, nil)
		popped := false
		for {
			c, ok := ph.PopRemote()
			if !ok {
				break
			}
			popped = true
			seq := ridSeq(c.RID)
			switch {
			case c.Err != nil:
				rs.fail(c.Err)
			case ridKind(c.RID) == kDone:
				return
			case ridKind(c.RID) == kPut:
				if v := w.readWord(1); v != seq {
					rs.fail(fmt.Errorf("op %d: put word holds %#x", seq, v))
				}
			case ridKind(c.RID) == kSend:
				if len(c.Data) != latSendBytes || !w.tape.checkPayload(c.Data, seq, w.sendTapeOff(seq)) {
					rs.fail(fmt.Errorf("op %d: send payload mismatch", seq))
				}
			default:
				rs.fail(fmt.Errorf("unexpected completion %#x", c.RID))
			}
			binary.LittleEndian.PutUint64(reply, ^seq)
			for {
				err := ph.PutWithCompletion(0, reply, peer, latWordOff, 0, rid(seq, kRep))
				if !rs.posted(err) {
					if err != nil {
						rs.fail(err)
					}
					break
				}
				progress(ph, rs, nil)
			}
		}
		if n == 0 && !popped {
			pk.park()
		}
	}
}
