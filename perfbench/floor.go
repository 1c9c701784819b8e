package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"photon/internal/core"
	"photon/internal/mem"
)

// The transport floor: on a bare 2-rank cluster with no engine, rank 0
// times an 8 B signaled PostWrite→Poll round trip and an 8 B
// PostFetchAdd→Poll round trip through the public core.Backend methods.
// Rank 1 runs nothing; its backend's own goroutines serve the ops.
// What an op costs above this floor is the engine's.

type floor struct {
	write, fa hist // round-trip ns
}

// measureFloor measures transport for dur, half on writes and half on
// fetch-adds, recording spans into tr.
func measureFloor(transport string, dur time.Duration, tr *tracer) (*floor, error) {
	cl, err := boot(transport)
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", transport, err)
	}
	defer cl.closed()
	bes := cl.bes
	bufs := make([][]byte, ranks)
	descs := make([][]mem.RemoteBuffer, ranks)
	errs := make([]error, ranks)
	onRanks(func(r int) {
		bufs[r] = make([]byte, 64)
		rb, _, err := bes[r].Register(bufs[r])
		if err != nil {
			errs[r] = err
			return
		}
		blob := make([]byte, 20)
		binary.LittleEndian.PutUint64(blob, rb.Addr)
		binary.LittleEndian.PutUint32(blob[8:], rb.RKey)
		binary.LittleEndian.PutUint64(blob[12:], uint64(rb.Len))
		all, err := bes[r].Exchange(blob)
		if err != nil {
			errs[r] = err
			return
		}
		for _, b := range all {
			descs[r] = append(descs[r], mem.RemoteBuffer{
				Addr: binary.LittleEndian.Uint64(b),
				RKey: binary.LittleEndian.Uint32(b[8:]),
				Len:  int(binary.LittleEndian.Uint64(b[12:])),
			})
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, fmt.Errorf("%s floor set-up: %w", transport, err)
	}

	be, dst := bes[0], descs[0][1]
	var notify <-chan struct{}
	if nb, ok := be.(core.NotifyBackend); ok {
		notify = nb.Notify()
	}
	pk := newParker(notify)
	defer pk.stop()
	comps := make([]core.BackendCompletion, 16)
	src, res := []byte("floor-w8"), make([]byte, 8)

	// roundTrip posts one op and polls until its completion, parking on
	// the backend's notify channel between dry polls.
	roundTrip := func(tok uint64, post func() error) error {
		for {
			s := tr.now()
			err := post()
			tr.child(spRawPost, s)
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrWouldBlock) {
				return err
			}
			be.Poll(comps)
		}
		for {
			s := tr.now()
			n := be.Poll(comps)
			tr.child(spRawPoll, s)
			for _, c := range comps[:n] {
				if c.Token != tok {
					continue
				}
				if !c.OK {
					return fmt.Errorf("completion %d failed: %v", tok, c.Err)
				}
				return nil
			}
			if n == 0 {
				s := tr.now()
				pk.park()
				tr.child(spPark, s)
			}
		}
	}

	f := &floor{}
	var tok, prior uint64
	for _, kind := range []int{kPut, kFA} {
		end := time.Now().Add(dur / 2)
		for time.Now().Before(end) {
			tok++
			tr.begin(tok)
			t0 := time.Now()
			if kind == kPut {
				err = roundTrip(tok, func() error { return be.PostWrite(1, src, dst.Addr, dst.RKey, tok, true) })
			} else {
				err = roundTrip(tok, func() error { return be.PostFetchAdd(1, res, dst.Addr+8, dst.RKey, 1, tok) })
			}
			lat := time.Since(t0)
			tr.end()
			if err != nil {
				return nil, fmt.Errorf("%s floor: %w", transport, err)
			}
			if kind == kPut {
				f.write.add(int64(lat))
				continue
			}
			if v := binary.LittleEndian.Uint64(res); v != prior {
				return nil, fmt.Errorf("%s floor: fetch-add prior %d, want %d", transport, v, prior)
			}
			prior++
			f.fa.add(int64(lat))
		}
	}
	return f, nil
}
