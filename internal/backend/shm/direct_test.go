package shm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/shm"
	"photon/internal/core"
	"photon/internal/mem"
)

// The direct-access contract: every Post* acts on the target's
// registered memory before it returns, under the target's memory lock,
// and reports the outcome as a completion on the initiator (never as a
// transient error).

// nextComp polls b for one completion of any outcome.
func nextComp(t *testing.T, b *shm.Backend) core.BackendCompletion {
	t.Helper()
	var c [1]core.BackendCompletion
	deadline := time.Now().Add(waitT)
	for b.Poll(c[:]) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for a completion")
		}
	}
	return c[0]
}

// register pins an n-byte buffer at b.
func register(t *testing.T, b *shm.Backend, n int) ([]byte, mem.RemoteBuffer, sync.Locker) {
	t.Helper()
	buf := make([]byte, n)
	rb, lk, err := b.Register(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf, rb, lk
}

// TestWriteVisibleToLaterReadAndAtomic posts an unsignaled write and
// then, on the same bytes, a read and a fetch-add: RC order means both
// see the write.
func TestWriteVisibleToLaterReadAndAtomic(t *testing.T) {
	cl := newCluster(t, 2)
	b0 := cl.Backend(0)
	target, rb, _ := register(t, cl.Backend(1), 64)
	var w [8]byte
	got, prior := make([]byte, 8), make([]byte, 8)
	for i := uint64(1); i <= 100; i++ {
		binary.LittleEndian.PutUint64(w[:], i*1000)
		if err := b0.PostWrite(1, w[:], rb.Addr+8, rb.RKey, 0, false); err != nil {
			t.Fatal(err)
		}
		if err := b0.PostRead(1, got, rb.Addr+8, rb.RKey, 2*i); err != nil {
			t.Fatal(err)
		}
		if err := b0.PostFetchAdd(1, prior, rb.Addr+8, rb.RKey, 1, 2*i+1); err != nil {
			t.Fatal(err)
		}
		waitComps(t, b0, 2)
		if v := binary.LittleEndian.Uint64(got); v != i*1000 {
			t.Fatalf("round %d: read %d, want %d", i, v, i*1000)
		}
		if v := binary.LittleEndian.Uint64(prior); v != i*1000 {
			t.Fatalf("round %d: fetch-add prior %d, want %d", i, v, i*1000)
		}
		if v := binary.LittleEndian.Uint64(target[8:]); v != i*1000+1 {
			t.Fatalf("round %d: target holds %d, want %d", i, v, i*1000+1)
		}
	}
}

// TestAccessErrorsComplete checks that a bad rkey or an out-of-bounds
// range fails the op through an error completion carrying its token,
// on every op kind and for the initiator's own rank too, and leaves
// the target untouched.
func TestAccessErrorsComplete(t *testing.T) {
	cl := newCluster(t, 2)
	b0 := cl.Backend(0)
	res := make([]byte, 8)
	for _, dst := range []int{1, 0} {
		target, rb, _ := register(t, cl.Backend(dst), 64)
		bad := rb.RKey + 100
		end := rb.Addr + uint64(rb.Len)
		cases := []struct {
			name string
			post func(tok uint64) error
		}{
			{"write bad rkey", func(tok uint64) error { return b0.PostWrite(dst, []byte{1}, rb.Addr, bad, tok, true) }},
			{"write past end", func(tok uint64) error { return b0.PostWrite(dst, make([]byte, 16), end-8, rb.RKey, tok, true) }},
			{"write below base", func(tok uint64) error { return b0.PostWrite(dst, []byte{1}, rb.Addr-1, rb.RKey, tok, true) }},
			{"read bad rkey", func(tok uint64) error { return b0.PostRead(dst, res, rb.Addr, bad, tok) }},
			{"read past end", func(tok uint64) error { return b0.PostRead(dst, res, end-4, rb.RKey, tok) }},
			{"fetch-add bad rkey", func(tok uint64) error { return b0.PostFetchAdd(dst, res, rb.Addr, bad, 1, tok) }},
			{"fetch-add past end", func(tok uint64) error { return b0.PostFetchAdd(dst, res, end, rb.RKey, 1, tok) }},
			{"comp-swap bad rkey", func(tok uint64) error { return b0.PostCompSwap(dst, res, rb.Addr, bad, 0, 1, tok) }},
			{"comp-swap past end", func(tok uint64) error { return b0.PostCompSwap(dst, res, end, rb.RKey, 0, 1, tok) }},
		}
		for i, tc := range cases {
			tok := uint64(100*dst + i + 1)
			if err := tc.post(tok); err != nil {
				t.Fatalf("rank %d %s: post returned %v, want an error completion", dst, tc.name, err)
			}
			c := nextComp(t, b0)
			if c.Token != tok || c.OK || c.Err == nil {
				t.Fatalf("rank %d %s: completion %+v, want failed token %d", dst, tc.name, c, tok)
			}
		}
		if !bytes.Equal(target, make([]byte, 64)) {
			t.Fatalf("rank %d: failed ops changed the target: %x", dst, target)
		}
	}
}

// TestMisalignedAtomicRejected checks that an atomic on a word that is
// not 8-byte aligned fails, like tcp and nicsim, and leaves memory
// untouched.
func TestMisalignedAtomicRejected(t *testing.T) {
	cl := newCluster(t, 2)
	b0 := cl.Backend(0)
	target, rb, _ := register(t, cl.Backend(1), 64)
	for i := range target {
		target[i] = byte(i)
	}
	want := bytes.Clone(target)
	res := make([]byte, 8)
	if err := b0.PostFetchAdd(1, res, rb.Addr+3, rb.RKey, 1, 7); err != nil {
		t.Fatal(err)
	}
	if c := nextComp(t, b0); c.Token != 7 || c.OK || c.Err == nil {
		t.Fatalf("misaligned fetch-add completed %+v, want failure", c)
	}
	if err := b0.PostCompSwap(1, res, rb.Addr+12, rb.RKey, 0, 1, 8); err != nil {
		t.Fatal(err)
	}
	if c := nextComp(t, b0); c.Token != 8 || c.OK || c.Err == nil {
		t.Fatalf("misaligned comp-swap completed %+v, want failure", c)
	}
	if !bytes.Equal(target, want) {
		t.Fatalf("misaligned atomics changed memory: %x", target)
	}
}

// TestPostToClosedPeerFails checks that every post toward a closed
// peer returns core.ErrPeerDown at once, and every post from a closed
// endpoint core.ErrClosed; neither hangs nor reports ErrWouldBlock.
func TestPostToClosedPeerFails(t *testing.T) {
	cl := newCluster(t, 2)
	b0 := cl.Backend(0)
	_, rb, _ := register(t, cl.Backend(1), 64)
	res := make([]byte, 8)
	posts := map[string]func() error{
		"write":     func() error { return b0.PostWrite(1, []byte{1}, rb.Addr, rb.RKey, 1, true) },
		"read":      func() error { return b0.PostRead(1, res, rb.Addr, rb.RKey, 2) },
		"fetch-add": func() error { return b0.PostFetchAdd(1, res, rb.Addr, rb.RKey, 1, 3) },
		"comp-swap": func() error { return b0.PostCompSwap(1, res, rb.Addr, rb.RKey, 0, 1, 4) },
		"write batch": func() error {
			_, err := b0.PostWriteBatch(1, []core.WriteReq{{Local: []byte{1}, RemoteAddr: rb.Addr, RKey: rb.RKey}})
			return err
		},
	}
	check := func(want error) {
		t.Helper()
		for name, post := range posts {
			done := make(chan error, 1)
			go func() { done <- post() }()
			select {
			case err := <-done:
				if !errors.Is(err, want) || errors.Is(err, core.ErrWouldBlock) {
					t.Fatalf("%s: %v, want %v", name, err, want)
				}
			case <-time.After(waitT):
				t.Fatalf("%s: post hung", name)
			}
		}
	}
	if err := cl.Backend(1).Close(); err != nil {
		t.Fatal(err)
	}
	check(core.ErrPeerDown)
	if err := b0.Close(); err != nil {
		t.Fatal(err)
	}
	check(core.ErrClosed)
	if n := b0.Poll(make([]core.BackendCompletion, 4)); n != 0 {
		t.Fatalf("rejected posts queued %d completions", n)
	}
}

// TestBidirectionalPostsWithLockers has both ranks post writes and
// fetch-adds toward each other in tight loops while each application
// takes and releases its own registration locker between posts to
// read the window the peer writes (run under -race in CI). Posting
// never happens under a locker, so neither side can wait on the other.
func TestBidirectionalPostsWithLockers(t *testing.T) {
	cl := newCluster(t, 2)
	const iters = 2000
	const words = 64
	counterOff := uint64(words * 8)
	var bufs [2][]byte
	var rbs [2]mem.RemoteBuffer
	var lks [2]sync.Locker
	for r := 0; r < 2; r++ {
		bufs[r], rbs[r], lks[r] = register(t, cl.Backend(r), int(counterOff)+8)
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			b, peer, dst := cl.Backend(r), 1-r, rbs[1-r]
			var w, res [8]byte
			var comps [16]core.BackendCompletion
			want, got := 0, 0
			reap := func() bool {
				n := b.Poll(comps[:])
				for _, c := range comps[:n] {
					if !c.OK {
						t.Errorf("rank %d: completion %d failed: %v", r, c.Token, c.Err)
						return false
					}
				}
				got += n
				return true
			}
			for i := 0; i < iters; i++ {
				lks[r].Lock()
				_ = binary.LittleEndian.Uint64(bufs[r][(i%words)*8:])
				lks[r].Unlock()

				off := uint64(i%words) * 8
				binary.LittleEndian.PutUint64(w[:], uint64(i))
				signaled := i%8 == 7
				if err := b.PostWrite(peer, w[:], dst.Addr+off, dst.RKey, uint64(i), signaled); err != nil {
					t.Errorf("rank %d write %d: %v", r, i, err)
					return
				}
				if signaled {
					want++
				}
				if err := b.PostFetchAdd(peer, res[:], dst.Addr+counterOff, dst.RKey, 1, uint64(iters+i)); err != nil {
					t.Errorf("rank %d fetch-add %d: %v", r, i, err)
					return
				}
				want++
				if !reap() {
					return
				}
			}
			deadline := time.Now().Add(waitT)
			for got < want {
				if !reap() {
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("rank %d: %d/%d completions", r, got, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		lks[r].Lock()
		n := binary.LittleEndian.Uint64(bufs[r][counterOff:])
		last := binary.LittleEndian.Uint64(bufs[r][((iters-1)%words)*8:])
		lks[r].Unlock()
		if n != iters {
			t.Fatalf("rank %d counter = %d, want %d", r, n, iters)
		}
		if last != iters-1 {
			t.Fatalf("rank %d last word = %d, want %d", r, last, iters-1)
		}
	}
}
