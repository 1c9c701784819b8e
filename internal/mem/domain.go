package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Errors returned by Domain when a one-sided access fails its checks.
var (
	ErrUnknownRKey = errors.New("mem: unknown rkey")
	ErrOutOfBounds = errors.New("mem: address out of registration bounds")
	ErrMisaligned  = errors.New("mem: misaligned atomic")
)

// AtomicLen is the size and alignment of the word every fetch-add and
// compare-and-swap acts on.
const AtomicLen = 8

// Domain is one rank's target-side registered memory for transports
// that apply one-sided operations in software (the tcp agent, the shm
// initiator): the registration table, the read-locker callers hold
// while polling registered bytes, the rkey, bounds and address-wrap
// checks, the apply of every operation kind, and the write-activity
// counter the progress engine gates its ledger sweep on.
//
// Registrations get page-aligned bases handed out linearly in a fake
// address space, keyed by rkey. Every apply runs under the domain's
// memory lock (the "DMA lock"); writes and atomics take it exclusively,
// reads and registration-locker holders share it. The zero value is
// ready to use. Applies never allocate on success.
type Domain struct {
	//photon:lock memdomain 50
	mu       sync.RWMutex
	act      atomic.Uint64 // bumped after every applied write or atomic
	regs     map[uint32]region
	nextRKey uint32
	nextBase uint64
}

// region is one registered buffer at its fake base address.
type region struct {
	buf  []byte
	base uint64
}

// Register pins buf, returning its descriptor and the read-locker
// callers must hold while polling bytes that remote peers write into
// buf (and release before posting).
func (d *Domain) Register(buf []byte) (RemoteBuffer, sync.Locker, error) {
	if len(buf) == 0 {
		return RemoteBuffer{}, nil, fmt.Errorf("%w: empty registration", ErrBadSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.regs == nil {
		d.regs = make(map[uint32]region)
		d.nextRKey = 1
		d.nextBase = 0x1000
	}
	rkey := d.nextRKey
	d.nextRKey++
	base := d.nextBase
	d.nextBase += (uint64(len(buf))+0xFFF)&^uint64(0xFFF) + 0x1000
	d.regs[rkey] = region{buf: buf, base: base}
	return RemoteBuffer{Addr: base, RKey: rkey, Len: len(buf)}, d.mu.RLocker(), nil
}

// Deregister removes a registration by its descriptor.
func (d *Domain) Deregister(rb RemoteBuffer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.regs[rb.RKey]; !ok {
		return fmt.Errorf("%w %d", ErrUnknownRKey, rb.RKey)
	}
	delete(d.regs, rb.RKey)
	return nil
}

// WriteActivity returns a loader for the domain's write-activity count
// (one counter covers every registration); ok is false when rb is not
// registered here.
func (d *Domain) WriteActivity(rb RemoteBuffer) (func() uint64, bool) {
	d.mu.RLock()
	_, ok := d.regs[rb.RKey]
	d.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return d.act.Load, true
}

// lookup resolves (rkey, addr, n) to the bytes it names; the caller
// holds mu.
func (d *Domain) lookup(rkey uint32, addr uint64, n int) ([]byte, error) {
	r, ok := d.regs[rkey]
	if !ok {
		return nil, fmt.Errorf("%w %d", ErrUnknownRKey, rkey)
	}
	end := addr + uint64(n)
	if addr < r.base || end < addr || end > r.base+uint64(len(r.buf)) {
		return nil, ErrOutOfBounds
	}
	off := addr - r.base
	return r.buf[off : off+uint64(n)], nil
}

// Write copies data into registered memory at (addr, rkey).
func (d *Domain) Write(addr uint64, rkey uint32, data []byte) error {
	d.mu.Lock()
	dst, err := d.lookup(rkey, addr, len(data))
	if err == nil {
		copy(dst, data)
	}
	d.mu.Unlock()
	if err == nil {
		d.act.Add(1)
	}
	return err
}

// Read copies len(dst) bytes of registered memory at (addr, rkey) into
// dst.
func (d *Domain) Read(dst []byte, addr uint64, rkey uint32) error {
	d.mu.RLock()
	src, err := d.lookup(rkey, addr, len(dst))
	if err == nil {
		copy(dst, src)
	}
	d.mu.RUnlock()
	return err
}

// FetchAdd adds add to the aligned 8-byte word at (addr, rkey),
// returning its prior value.
func (d *Domain) FetchAdd(addr uint64, rkey uint32, add uint64) (uint64, error) {
	return d.atomic(addr, rkey, false, add, 0)
}

// CompSwap replaces the aligned 8-byte word at (addr, rkey) with swap
// if it equals compare, returning its prior value.
func (d *Domain) CompSwap(addr uint64, rkey uint32, compare, swap uint64) (uint64, error) {
	return d.atomic(addr, rkey, true, compare, swap)
}

// atomic applies a fetch-add (operand is the addend) or, if cswap, a
// compare-and-swap (operand is the comparand) to one aligned word.
func (d *Domain) atomic(addr uint64, rkey uint32, cswap bool, operand, swap uint64) (uint64, error) {
	if addr%AtomicLen != 0 {
		return 0, ErrMisaligned
	}
	d.mu.Lock()
	w, err := d.lookup(rkey, addr, AtomicLen)
	var old uint64
	if err == nil {
		old = binary.LittleEndian.Uint64(w)
		nv := old + operand
		if cswap {
			nv = old
			if old == operand {
				nv = swap
			}
		}
		binary.LittleEndian.PutUint64(w, nv)
	}
	d.mu.Unlock()
	if err == nil {
		d.act.Add(1)
	}
	return old, err
}
