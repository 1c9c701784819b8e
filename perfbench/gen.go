package main

import (
	"bytes"
	"encoding/binary"
	"math"
)

// Every input of every workload is a pure function of the run's seed
// and an op's (rank, sequence number), so a receiver can recompute
// exactly what a sender posted and check it, and the same seed always
// produces the same op sequence.

// mix is the splitmix64 finalizer: a bijection, so distinct inputs
// give distinct outputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opHash keys one op's parameters by (seed, rank, seq, salt).
func opHash(seed uint64, rank int, seq, salt uint64) uint64 {
	return mix(mix(mix(mix(seed)^uint64(rank))^seq) ^ salt)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// logUniform draws an integer in [lo, hi] with log-uniform density.
func logUniform(h uint64, lo, hi int) int {
	v := int(float64(lo) * math.Exp2(unit(h)*math.Log2(float64(hi)/float64(lo))))
	if v > hi {
		v = hi
	}
	return v
}

// tape is a seeded byte string every rank derives alike. Payloads are
// an 8-byte header (the op's sequence number) followed by a slice of
// the tape, so checking a payload is one compare and one memcmp.
type tape []byte

func newTape(seed uint64, n int) tape {
	t := make(tape, n)
	k := mix(seed ^ 0x7a9e)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(t[i:], mix(k+uint64(i)))
	}
	return t
}

// fillPayload writes the payload of op seq into dst.
func (t tape) fillPayload(dst []byte, seq uint64, tapeOff int) {
	binary.LittleEndian.PutUint64(dst, seq)
	copy(dst[8:], t[tapeOff:])
}

// checkPayload reports whether got is exactly op seq's payload.
func (t tape) checkPayload(got []byte, seq uint64, tapeOff int) bool {
	if len(got) < 8 || binary.LittleEndian.Uint64(got) != seq {
		return false
	}
	return bytes.Equal(got[8:], t[tapeOff:tapeOff+len(got)-8])
}

// Op kinds, shared by the RMA workloads. A kind rides in the low bits
// of a completion identifier (see rid).
const (
	kPut  = 1 // PWC put
	kGet  = 2 // GWC get
	kSend = 3 // eager or rendezvous Send
	kFA   = 4 // 8-byte FetchAdd
	kRep  = 5 // rma-latency: the responder's reply put
	kDone = 6 // end-of-phase marker
)

// rid builds a completion identifier. User RIDs keep the top bit clear
// (collectives own that half of the space).
func rid(seq uint64, kind int) uint64 { return seq<<4 | uint64(kind) }

func ridSeq(r uint64) uint64 { return r >> 4 }
func ridKind(r uint64) int   { return int(r & 15) }

// latOp is one rma-latency op: 40% 8 B put, 20% 64 B Send, 20% 8 B
// get, 20% 8 B FetchAdd.
type latOp struct {
	kind   int
	srcOff int    // get: offset into the peer's static source region
	add    uint64 // FetchAdd operand
}

const (
	latSendBytes = 64
	latSrcBytes  = 4 << 10
)

func newLatOp(seed, seq uint64) latOp {
	h := opHash(seed, 0, seq, 1)
	op := latOp{srcOff: int(mix(h)%(latSrcBytes/8)) * 8, add: h>>56 + 1}
	switch p := h % 100; {
	case p < 40:
		op.kind = kPut
	case p < 60:
		op.kind = kSend
	case p < 80:
		op.kind = kGet
	default:
		op.kind = kFA
	}
	return op
}

// streamOp is one rma-stream op: 55% put and 25% get, log-uniform
// from 8 B to 64 KiB; 10% 8 B FetchAdd; 10% Send log-uniform from 64 B
// to 16 KiB, which straddles the default eager threshold (1007 B).
type streamOp struct {
	kind    int
	size    int
	tapeOff int    // put/send: payload slice of the tape
	srcOff  int    // get: offset into the peer's static source region
	add     uint64 // FetchAdd operand
}

const (
	streamMaxBytes  = 64 << 10
	streamSendMin   = 64
	streamSendMax   = 16 << 10
	streamSrcBytes  = 128 << 10
	streamTapeBytes = 256 << 10
)

func newStreamOp(seed uint64, rank int, seq uint64) streamOp {
	h := opHash(seed, rank, seq, 2)
	h2, h3 := mix(h), mix(h^0x5bd1)
	var op streamOp
	switch p := h % 100; {
	case p < 55:
		op.kind, op.size = kPut, logUniform(h2, 8, streamMaxBytes)
	case p < 80:
		op.kind, op.size = kGet, logUniform(h2, 8, streamMaxBytes)
	case p < 90:
		op.kind, op.size = kFA, 8
	default:
		op.kind, op.size = kSend, logUniform(h2, streamSendMin, streamSendMax)
	}
	op.tapeOff = int(h3%uint64(streamTapeBytes-streamMaxBytes)) &^ 7
	op.srcOff = int(h3%uint64(streamSrcBytes-op.size+1)) &^ 7
	op.add = h3>>56 + 1
	return op
}

// bspSmall fills the step's 8-element allreduce input of rank: small
// integers, so every sum is exact. Element 0 is reserved for the stop
// vote.
func bspSmall(dst []float64, seed uint64, rank int, step uint64) {
	dst[0] = 0
	for i := 1; i < len(dst); i++ {
		dst[i] = float64(opHash(seed, rank, step, uint64(16+i)) % 1000)
	}
}

// bspLarge fills a 16 Ki-element allreduce input of rank from the tape
// (integers below 2^20, exact in float64 sums).
func bspLarge(dst []float64, t tape, rank int, variant int) {
	base := (variant*ranks + rank) * 8
	for i := range dst {
		w := binary.LittleEndian.Uint64(t[(base+i*8)%(len(t)-8):])
		dst[i] = float64(w & (1<<20 - 1))
	}
}
