// Package runtime is a miniature message-driven runtime system in the
// HPX-5 mold — localities, typed actions, parcels, and futures — built
// directly on Photon's put-with-completion primitive. It reproduces the
// paper's integration story: a parcel transport does not want two-sided
// matching, it wants data delivered one-sidedly with a completion
// identifier the scheduler can dispatch on, which is exactly what the
// PWC ledger provides.
//
// A parcel names an action (a registered handler), carries a payload,
// and optionally a continuation: a future at the sender that the
// handler's return value resolves. Parcels ride Photon Sends whose
// remote RID carries the parcel tag; the locality's dispatcher harvests
// remote completions, decodes parcels, and runs handlers on a bounded
// worker pool. Local completions route back to futures, which is how
// the global-address-space layer (gas.go) turns one-sided puts and gets
// into awaitable operations.
//
// RID space: the runtime claims bits 62 (parcels) and 61 (local future
// routing). Applications sharing a Photon instance with the runtime
// must keep those bits clear in their own RIDs; collectives.Comm claims
// bit 63 and must not share a Photon instance with a running Locality
// (its completions would be consumed by the dispatcher).
package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/core"
)

// RID tag bits claimed by the runtime.
const (
	bitParcel = uint64(1) << 62
	bitFuture = uint64(1) << 61
)

// Errors returned by the runtime. ErrTimeout wraps core.ErrTimeout,
// so errors.Is against either name matches timeouts from this layer.
var (
	ErrStopped        = errors.New("runtime: locality stopped")
	ErrUnknownAction  = errors.New("runtime: unknown action")
	ErrActionConflict = errors.New("runtime: action name hash collision")
	ErrTimeout        = fmt.Errorf("runtime: wait timed out: %w", core.ErrTimeout)
)

// ActionID names a registered handler, stable across ranks (FNV-1a of
// the action name).
type ActionID uint32

// Context is what a handler receives.
type Context struct {
	// Rt is the executing locality.
	Rt *Locality
	// Src is the rank that sent the parcel.
	Src int
	// Payload is the parcel body (owned by the handler).
	Payload []byte
}

// Handler executes one parcel. Its return value resolves the sender's
// continuation future (if the parcel carried one); a returned error
// resolves the future with that error.
type Handler func(ctx *Context) ([]byte, error)

// Config tunes a locality.
type Config struct {
	// Workers bounds concurrently executing handlers (default 64).
	Workers int
	// Timeout bounds internal waits like Barrier (default 30s; <=0
	// waits forever).
	Timeout time.Duration
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 64
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
}

// Counters reports locality activity.
type Counters struct {
	ParcelsSent     int64
	ParcelsExecuted int64
	FuturesResolved int64
}

// Future is a single-assignment value produced by a remote action or a
// one-sided operation.
type Future struct {
	ch     chan futResult
	once   sync.Once
	preset []byte // resolution data when the completion carries none
	// (one-sided gets deliver into the caller's buffer)
}

type futResult struct {
	data  []byte
	value uint64
	err   error
}

func newFuture() *Future { return &Future{ch: make(chan futResult, 1)} }

func (f *Future) set(data []byte, value uint64, err error) {
	if data == nil && err == nil {
		data = f.preset
	}
	f.once.Do(func() { f.ch <- futResult{data: data, value: value, err: err} })
}

// Wait blocks until the future resolves; a non-positive timeout waits
// forever.
func (f *Future) Wait(timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		r := <-f.ch
		f.ch <- r // leave resolved for repeat waits
		return r.data, r.err
	}
	select {
	case r := <-f.ch:
		f.ch <- r
		return r.data, r.err
	case <-time.After(timeout):
		return nil, ErrTimeout
	}
}

// Value waits and returns the 64-bit payload of atomic-style futures.
func (f *Future) Value(timeout time.Duration) (uint64, error) {
	if timeout <= 0 {
		r := <-f.ch
		f.ch <- r
		return r.value, r.err
	}
	select {
	case r := <-f.ch:
		f.ch <- r
		return r.value, r.err
	case <-time.After(timeout):
		return 0, ErrTimeout
	}
}

// Locality is one rank's runtime instance.
type Locality struct {
	ph   *core.Photon
	cfg  Config
	rank int
	size int

	//photon:lock act 10
	actMu   sync.RWMutex
	actions map[ActionID]Handler
	names   map[ActionID]string

	//photon:lock fut 20
	futMu   sync.Mutex
	futures map[uint64]*Future
	nextFut uint64

	seq atomic.Uint64

	workers chan struct{}
	stop    chan struct{}
	stopped atomic.Bool
	done    sync.WaitGroup

	// barrier state
	barrierGen atomic.Uint64
	//photon:lock bar 30
	barMu  sync.Mutex
	barGen map[uint64]*barState

	counters struct {
		sent, executed, resolved atomic.Int64
	}
}

type barState struct {
	count   int
	release chan struct{}
}

// Internal action names.
const (
	actReply   = "__runtime_reply"
	actBarrier = "__runtime_barrier"
)

// NewLocality wraps a Photon instance. The caller registers actions,
// then calls Start; Start must be called on every rank before any rank
// sends parcels (a collective Barrier right after Start is idiomatic).
func NewLocality(ph *core.Photon, cfg Config) *Locality {
	cfg.setDefaults()
	l := &Locality{
		ph:      ph,
		cfg:     cfg,
		rank:    ph.Rank(),
		size:    ph.Size(),
		actions: make(map[ActionID]Handler),
		names:   make(map[ActionID]string),
		futures: make(map[uint64]*Future),
		nextFut: 1,
		workers: make(chan struct{}, cfg.Workers),
		stop:    make(chan struct{}),
		barGen:  make(map[uint64]*barState),
	}
	// Internal actions.
	must := func(name string, h Handler) {
		if _, err := l.RegisterAction(name, h); err != nil {
			panic(err)
		}
	}
	must(actReply, l.handleReply)
	must(actBarrier, l.handleBarrier)
	return l
}

// Rank returns the locality's rank.
func (l *Locality) Rank() int { return l.rank }

// Size returns the job size.
func (l *Locality) Size() int { return l.size }

// Photon exposes the underlying middleware (for GAS setup).
func (l *Locality) Photon() *core.Photon { return l.ph }

// Counters returns an activity snapshot.
func (l *Locality) Counters() Counters {
	return Counters{
		ParcelsSent:     l.counters.sent.Load(),
		ParcelsExecuted: l.counters.executed.Load(),
		FuturesResolved: l.counters.resolved.Load(),
	}
}

// ActionIDFor computes the stable ID for an action name.
func ActionIDFor(name string) ActionID {
	h := fnv.New32a()
	h.Write([]byte(name))
	return ActionID(h.Sum32())
}

// RegisterAction installs a handler under the name's stable ID. Every
// rank must register the same actions before Start.
func (l *Locality) RegisterAction(name string, h Handler) (ActionID, error) {
	id := ActionIDFor(name)
	l.actMu.Lock()
	defer l.actMu.Unlock()
	if prev, ok := l.names[id]; ok {
		if prev != name {
			return 0, fmt.Errorf("%w: %q vs %q", ErrActionConflict, prev, name)
		}
		l.actions[id] = h // re-registration replaces
		return id, nil
	}
	l.names[id] = name
	l.actions[id] = h
	return id, nil
}

// Start launches the dispatcher.
func (l *Locality) Start() {
	l.done.Add(1)
	go l.dispatch()
}

// Shutdown stops the dispatcher and waits for it to exit. In-flight
// handlers finish; unresolved futures resolve with ErrStopped.
func (l *Locality) Shutdown() {
	if l.stopped.Swap(true) {
		return
	}
	close(l.stop)
	l.done.Wait()
	l.futMu.Lock()
	for id, f := range l.futures {
		delete(l.futures, id)
		f.set(nil, 0, ErrStopped)
	}
	l.futMu.Unlock()
}

// newFutureID registers a fresh future.
func (l *Locality) newFutureID() (uint64, *Future) {
	f := newFuture()
	l.futMu.Lock()
	id := l.nextFut
	l.nextFut++
	l.futures[id] = f
	l.futMu.Unlock()
	return id, f
}

func (l *Locality) takeFuture(id uint64) (*Future, bool) {
	l.futMu.Lock()
	f, ok := l.futures[id]
	if ok {
		delete(l.futures, id)
	}
	l.futMu.Unlock()
	return f, ok
}

// registerFutureForRID attaches a future to a local-completion RID (GAS
// operations use this). buf, when non-nil, becomes the future's data if
// the completion itself carries none (one-sided gets fill the caller's
// buffer directly).
func (l *Locality) registerFutureForRID(buf []byte) (uint64, *Future) {
	id, f := l.newFutureID()
	f.preset = buf
	return bitFuture | id, f
}

// Parcel wire fixed-part lengths shared by the encoders and the
// decode-side short-frame checks.
const (
	parcelHdrLen   = 4 + 8 // action4 | cont8; payload follows
	replyHdrLen    = 8 + 1 // cont8 | failed1; body follows
	barrierBodyLen = 8     // generation8
)

// parcel wire format: [action4][cont8][payload...]
func encodeParcel(action ActionID, cont uint64, payload []byte) []byte {
	b := make([]byte, parcelHdrLen+len(payload))
	binary.LittleEndian.PutUint32(b[0:], uint32(action))
	binary.LittleEndian.PutUint64(b[4:], cont)
	copy(b[parcelHdrLen:], payload)
	return b
}

// Apply sends a fire-and-forget parcel.
func (l *Locality) Apply(rank int, action ActionID, payload []byte) error {
	return l.send(rank, action, 0, payload)
}

// Call sends a parcel whose handler's return value resolves the
// returned future.
func (l *Locality) Call(rank int, action ActionID, payload []byte) (*Future, error) {
	id, f := l.newFutureID()
	if err := l.send(rank, action, id, payload); err != nil {
		l.takeFuture(id)
		return nil, err
	}
	return f, nil
}

func (l *Locality) send(rank int, action ActionID, cont uint64, payload []byte) error {
	if l.stopped.Load() {
		return ErrStopped
	}
	rid := bitParcel | (l.seq.Add(1) & ((1 << 48) - 1))
	if err := l.ph.SendBlocking(rank, encodeParcel(action, cont, payload), 0, rid); err != nil {
		return err
	}
	l.counters.sent.Add(1)
	return nil
}

// dispatch is the progress/dispatch loop. After a dry round it parks
// on a core.Waiter, so Shutdown is observed within one park grace.
func (l *Locality) dispatch() {
	defer l.done.Done()
	w := core.NewWaiter(l.ph)
	defer w.Release()
	for {
		select {
		case <-l.stop:
			return
		default:
		}
		n := l.ph.Progress()
		for {
			c, ok := l.ph.PopRemote()
			if !ok {
				break
			}
			n++
			if c.RID&bitParcel != 0 {
				l.execParcel(c)
			}
			// Non-parcel remote completions are dropped: under a
			// running locality, all remote traffic is parcels.
		}
		for {
			c, ok := l.ph.PopLocal()
			if !ok {
				break
			}
			n++
			if c.RID&bitFuture != 0 {
				if f, ok := l.takeFuture(c.RID &^ bitFuture); ok {
					f.set(c.Data, c.Value, c.Err)
					l.counters.resolved.Add(1)
				}
			}
		}
		if n == 0 {
			w.Idle()
		}
	}
}

// execParcel decodes and schedules one parcel on the worker pool.
func (l *Locality) execParcel(c core.Completion) {
	if len(c.Data) < parcelHdrLen {
		return
	}
	action := ActionID(binary.LittleEndian.Uint32(c.Data[0:]))
	cont := binary.LittleEndian.Uint64(c.Data[4:])
	payload := c.Data[parcelHdrLen:]
	l.actMu.RLock()
	h, ok := l.actions[action]
	l.actMu.RUnlock()
	if !ok {
		if cont != 0 {
			l.replyErr(c.Rank, cont, fmt.Sprintf("%v: id %d", ErrUnknownAction, action))
		}
		return
	}
	// Replies run inline on the dispatcher: they only resolve futures
	// and must never be starved by a worker pool full of handlers that
	// are themselves blocked waiting on those futures.
	if action == ActionIDFor(actReply) {
		l.counters.executed.Add(1)
		_, _ = h(&Context{Rt: l, Src: c.Rank, Payload: payload})
		return
	}
	select {
	case l.workers <- struct{}{}:
	case <-l.stop:
		return
	}
	go func() {
		defer func() { <-l.workers }()
		out, err := h(&Context{Rt: l, Src: c.Rank, Payload: payload})
		l.counters.executed.Add(1)
		if cont == 0 {
			return
		}
		if err != nil {
			l.replyErr(c.Rank, cont, err.Error())
			return
		}
		body := make([]byte, replyHdrLen+len(out))
		binary.LittleEndian.PutUint64(body[0:], cont)
		body[8] = 0
		copy(body[replyHdrLen:], out)
		_ = l.send(c.Rank, ActionIDFor(actReply), 0, body)
	}()
}

func (l *Locality) replyErr(rank int, cont uint64, msg string) {
	body := make([]byte, replyHdrLen+len(msg))
	binary.LittleEndian.PutUint64(body[0:], cont)
	body[8] = 1
	copy(body[replyHdrLen:], msg)
	_ = l.send(rank, ActionIDFor(actReply), 0, body)
}

// handleReply resolves a continuation future.
func (l *Locality) handleReply(ctx *Context) ([]byte, error) {
	if len(ctx.Payload) < replyHdrLen {
		return nil, nil
	}
	id := binary.LittleEndian.Uint64(ctx.Payload[0:])
	failed := ctx.Payload[8] == 1
	body := append([]byte(nil), ctx.Payload[replyHdrLen:]...)
	if f, ok := l.takeFuture(id); ok {
		if failed {
			f.set(nil, 0, errors.New(string(body)))
		} else {
			f.set(body, 0, nil)
		}
		l.counters.resolved.Add(1)
	}
	return nil, nil
}

// Barrier blocks until every rank has entered (implemented as parcels
// to rank 0, whose handler holds each caller until the generation
// completes).
func (l *Locality) Barrier() error {
	gen := l.barrierGen.Add(1)
	body := make([]byte, barrierBodyLen)
	binary.LittleEndian.PutUint64(body, gen)
	f, err := l.Call(0, ActionIDFor(actBarrier), body)
	if err != nil {
		return err
	}
	_, err = f.Wait(l.cfg.Timeout)
	return err
}

// handleBarrier runs at rank 0: it blocks the worker until all ranks of
// the generation have arrived, then releases them all at once.
func (l *Locality) handleBarrier(ctx *Context) ([]byte, error) {
	if len(ctx.Payload) < barrierBodyLen {
		return nil, errors.New("runtime: short barrier parcel")
	}
	gen := binary.LittleEndian.Uint64(ctx.Payload)
	l.barMu.Lock()
	st, ok := l.barGen[gen]
	if !ok {
		st = &barState{release: make(chan struct{})}
		l.barGen[gen] = st
	}
	st.count++
	if st.count == l.size {
		close(st.release)
		delete(l.barGen, gen)
	}
	l.barMu.Unlock()
	var expire <-chan time.Time
	if l.cfg.Timeout > 0 {
		t := time.NewTimer(l.cfg.Timeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-st.release:
		return nil, nil
	case <-l.stop:
		return nil, ErrStopped
	case <-expire:
		return nil, ErrTimeout
	}
}
