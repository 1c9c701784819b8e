// Package conformance_test checks the core.Backend contract the same
// way against every transport: vsim, loopback tcp, shm, and chaos over
// vsim with an empty fault plan.
package conformance_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/shm"
	"photon/internal/backend/tcp"
	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

const waitT = 10 * time.Second

// transports builds a two-rank job per transport; each closes with t.
var transports = []struct {
	name string
	pair func(t *testing.T) [2]core.Backend
}{
	{"vsim", func(t *testing.T) [2]core.Backend {
		cl := newVsim(t)
		return [2]core.Backend{cl.Backend(0), cl.Backend(1)}
	}},
	{"tcp", newTCP},
	{"shm", func(t *testing.T) [2]core.Backend {
		cl, err := shm.NewCluster(2, shm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return [2]core.Backend{cl.Backend(0), cl.Backend(1)}
	}},
	{"chaos-vsim", func(t *testing.T) [2]core.Backend {
		cl := newVsim(t)
		return [2]core.Backend{chaos.Wrap(cl.Backend(0), chaos.Plan{}), chaos.Wrap(cl.Backend(1), chaos.Plan{})}
	}},
}

func newVsim(t *testing.T) *vsim.Cluster {
	cl, err := vsim.NewCluster(2, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func newTCP(t *testing.T) [2]core.Backend {
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var bes [2]*tcp.Backend
	var errs [2]error
	var wg sync.WaitGroup
	for r := range bes {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bes[r], errs[r] = tcp.New(tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r]})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		bes[0].Close()
		bes[1].Close()
	})
	return [2]core.Backend{bes[0], bes[1]}
}

// register pins an n-byte buffer at b.
func register(t *testing.T, b core.Backend, n int) ([]byte, mem.RemoteBuffer, sync.Locker) {
	t.Helper()
	buf := make([]byte, n)
	rb, lk, err := b.Register(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf, rb, lk
}

// collect polls b until want completions arrived, then keeps polling
// briefly so a duplicate would be caught too.
func collect(t *testing.T, b core.Backend, want int) []core.BackendCompletion {
	t.Helper()
	var got []core.BackendCompletion
	var buf [16]core.BackendCompletion
	deadline := time.Now().Add(waitT)
	var settle time.Time
	for settle.IsZero() || time.Now().Before(settle) {
		n := b.Poll(buf[:])
		got = append(got, buf[:n]...)
		if settle.IsZero() && len(got) >= want {
			settle = time.Now().Add(20 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d completions, want %d", len(got), want)
		}
		if n == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return got
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitT)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// A write from rank 0 advances rank 1's write-activity count and calls
// the wake sink installed on rank 1.
func TestWriteWakesTarget(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			bes := tr.pair(t)
			buf, rb, lk := register(t, bes[1], 64)
			act, ok := bes[1].WriteActivity(rb)
			if !ok {
				t.Fatal("no write-activity count for a live registration")
			}
			woke := make(chan struct{}, 1)
			bes[1].SetWakeSink(func() {
				select {
				case woke <- struct{}{}:
				default:
				}
			})
			before := act()
			if err := bes[0].PostWrite(1, []byte("conform!"), rb.Addr+8, rb.RKey, 7, true); err != nil {
				t.Fatal(err)
			}
			if c := collect(t, bes[0], 1); len(c) != 1 || c[0].Token != 7 || !c[0].OK {
				t.Fatalf("completions %+v, want one OK token 7", c)
			}
			waitFor(t, "write activity", func() bool { return act() > before })
			select {
			case <-woke:
			case <-time.After(waitT):
				t.Fatal("target's wake sink was not called")
			}
			lk.Lock()
			got := string(buf[8:16])
			lk.Unlock()
			if got != "conform!" {
				t.Fatalf("target holds %q", got)
			}
		})
	}
}

// PostWriteBatch lands its writes in order and completes each signaled
// token exactly once.
func TestWriteBatchOrderedOnce(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			bes := tr.pair(t)
			buf, rb, lk := register(t, bes[1], 256)
			const n = 12
			vals := make([][8]byte, n)
			reqs := make([]core.WriteReq, 0, 2*n)
			signaled := 0
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(vals[i][:], uint64(i+1))
				sig := i%3 == 0 || i == n-1
				if sig {
					signaled++
				}
				// Every write overwrites word 0 (the last must win) and
				// fills its own slot.
				reqs = append(reqs,
					core.WriteReq{Local: vals[i][:], RemoteAddr: rb.Addr, RKey: rb.RKey},
					core.WriteReq{Local: vals[i][:], RemoteAddr: rb.Addr + uint64(8*(i+1)), RKey: rb.RKey, Token: uint64(100 + i), Signaled: sig})
			}
			for rest := reqs; len(rest) > 0; {
				k, err := bes[0].PostWriteBatch(1, rest)
				if err != nil && !errors.Is(err, core.ErrWouldBlock) {
					t.Fatal(err)
				}
				rest = rest[k:]
			}
			seen := map[uint64]int{}
			for _, c := range collect(t, bes[0], signaled) {
				if !c.OK {
					t.Fatalf("write %d failed: %v", c.Token, c.Err)
				}
				seen[c.Token]++
			}
			for i := 0; i < n; i++ {
				want := 0
				if i%3 == 0 || i == n-1 {
					want = 1
				}
				if seen[uint64(100+i)] != want {
					t.Fatalf("token %d completed %d times, want %d (all: %v)", 100+i, seen[uint64(100+i)], want, seen)
				}
			}
			lk.Lock()
			defer lk.Unlock()
			if v := binary.LittleEndian.Uint64(buf); v != n {
				t.Fatalf("word 0 = %d, want %d (the last write)", v, n)
			}
			for i := 0; i < n; i++ {
				if v := binary.LittleEndian.Uint64(buf[8*(i+1):]); v != uint64(i+1) {
					t.Fatalf("slot %d = %d, want %d", i, v, i+1)
				}
			}
		})
	}
}

// A write snapshots its source at post time: overwriting the local
// buffer as soon as PostWrite returns must not change what lands at
// the target, for a small and a large write.
func TestWriteSnapshotsSourceAtPost(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			bes := tr.pair(t)
			for _, size := range []int{8, 64 << 10} {
				buf, rb, lk := register(t, bes[1], size)
				src := bytes.Repeat([]byte{0xa5}, size)
				tok := uint64(size)
				err := bes[0].PostWrite(1, src, rb.Addr, rb.RKey, tok, true)
				for errors.Is(err, core.ErrWouldBlock) {
					time.Sleep(50 * time.Microsecond)
					err = bes[0].PostWrite(1, src, rb.Addr, rb.RKey, tok, true)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := range src {
					src[i] = 0x5a
				}
				if c := collect(t, bes[0], 1); len(c) != 1 || c[0].Token != tok || !c[0].OK {
					t.Fatalf("%d B: completions %+v, want one OK token %d", size, c, tok)
				}
				lk.Lock()
				ok := bytes.Equal(buf, bytes.Repeat([]byte{0xa5}, size))
				lk.Unlock()
				if !ok {
					t.Fatalf("%d B: target does not hold the bytes the source held at post time", size)
				}
			}
		})
	}
}

// A bad rkey, an out-of-bounds range, a wrapping address and a
// misaligned atomic each fail, either at post time or as an error
// completion, and leave the target's memory untouched.
func TestAccessErrorsSurface(t *testing.T) {
	cases := []struct {
		name string
		post func(b core.Backend, rb mem.RemoteBuffer, tok uint64) error
	}{
		{"unknown-rkey", func(b core.Backend, rb mem.RemoteBuffer, tok uint64) error {
			return b.PostWrite(1, make([]byte, 8), rb.Addr, rb.RKey+1000, tok, true)
		}},
		{"out-of-bounds", func(b core.Backend, rb mem.RemoteBuffer, tok uint64) error {
			return b.PostWrite(1, make([]byte, 16), rb.Addr+uint64(rb.Len)-8, rb.RKey, tok, true)
		}},
		{"address-wrap", func(b core.Backend, rb mem.RemoteBuffer, tok uint64) error {
			return b.PostWrite(1, make([]byte, 16), ^uint64(0)-7, rb.RKey, tok, true)
		}},
		{"misaligned-atomic", func(b core.Backend, rb mem.RemoteBuffer, tok uint64) error {
			return b.PostFetchAdd(1, make([]byte, 8), rb.Addr+3, rb.RKey, 1, tok)
		}},
	}
	for _, tr := range transports {
		for _, tc := range cases {
			t.Run(tr.name+"/"+tc.name, func(t *testing.T) {
				// A fresh pair per case: an access error may leave a
				// verbs queue pair in the error state.
				bes := tr.pair(t)
				buf, rb, lk := register(t, bes[1], 64)
				if err := tc.post(bes[0], rb, 9); err != nil {
					return
				}
				c := collect(t, bes[0], 1)
				if len(c) != 1 || c[0].Token != 9 || c[0].OK || c[0].Err == nil {
					t.Fatalf("completions %+v, want one error completion for token 9", c)
				}
				lk.Lock()
				defer lk.Unlock()
				for i, v := range buf {
					if v != 0 {
						t.Fatalf("byte %d of the target changed to %#x", i, v)
					}
				}
			})
		}
	}
}
