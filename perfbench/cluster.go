package main

import (
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"photon/internal/backend/shm"
	"photon/internal/backend/tcp"
	"photon/internal/backend/vsim"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

// ranks is the job size of every workload: the host has two CPUs, and
// more in-process ranks would measure the Go scheduler, not Photon.
const ranks = 2

// setupTimes splits one set-up into the parts a user pays for.
type setupTimes struct {
	total    time.Duration // boot + Init + register/exchange + Comm
	register time.Duration // RegisterBuffer, rank 0
	exchange time.Duration // ExchangeBuffers, rank 0
	comm     time.Duration // NewWithConfig + first Barrier, rank 0
}

// cluster is a bare 2-rank job of one transport: its per-rank backends,
// and the transport's own handle for the counters it exposes.
type cluster struct {
	bes    []core.Backend
	shm    *shm.Cluster
	vsim   *vsim.Cluster
	tcp    []*tcp.Backend
	closed func() // closes the transport, after any engine on top of it
}

// env is one booted 2-rank job: one Photon and one Comm per rank, and
// one registered buffer per rank that every peer can address.
type env struct {
	cluster
	phs   []*core.Photon
	comms []*collectives.Comm
	bufs  [][]byte
	descs [][]mem.RemoteBuffer // descs[r][p]: rank p's buffer as seen by r
	lks   []sync.Locker        // guards reading bytes peers write into bufs[r]

	times setupTimes
}

// boot brings up a bare 2-rank cluster of the named transport.
func boot(transport string) (cluster, error) {
	c := cluster{bes: make([]core.Backend, ranks)}
	switch transport {
	case "shm":
		cl, err := shm.NewCluster(ranks, shm.Config{})
		if err != nil {
			return c, err
		}
		for r := range c.bes {
			c.bes[r] = cl.Backend(r)
		}
		c.shm, c.closed = cl, cl.Close
	case "vsim":
		// The zero Model adds no delay: timer sleeps would swamp the
		// software being measured.
		cl, err := vsim.NewCluster(ranks, fabric.Model{}, nicsim.Config{})
		if err != nil {
			return c, err
		}
		for r := range c.bes {
			c.bes[r] = cl.Backend(r)
		}
		c.vsim, c.closed = cl, cl.Close
	case "tcp":
		lns := make([]net.Listener, ranks)
		addrs := make([]string, ranks)
		for r := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range lns[:r] {
					l.Close()
				}
				return c, fmt.Errorf("listen: %w", err)
			}
			lns[r] = ln
			addrs[r] = ln.Addr().String()
		}
		c.tcp = make([]*tcp.Backend, ranks)
		errs := make([]error, ranks)
		onRanks(func(r int) {
			c.tcp[r], errs[r] = tcp.New(tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r]})
		})
		c.closed = func() {
			for _, b := range c.tcp {
				if b != nil {
					b.Close()
				}
			}
		}
		if err := firstErr(errs); err != nil {
			c.closed()
			return c, err
		}
		for r := range c.bes {
			c.bes[r] = c.tcp[r]
		}
	default:
		return c, fmt.Errorf("unknown transport %q", transport)
	}
	return c, nil
}

// newEnv boots a job over transport with the default core.Config and
// collectives.Config, registers bufs[r] at rank r, exchanges the
// descriptors and creates a Comm per rank. Everything from boot to the
// Comm's first Barrier is timed as set-up; bufs are the workload's
// input and are prepared before the clock starts.
func newEnv(transport string, bufs [][]byte) (*env, error) {
	e := &env{
		phs:   make([]*core.Photon, ranks),
		comms: make([]*collectives.Comm, ranks),
		bufs:  bufs,
		descs: make([][]mem.RemoteBuffer, ranks),
		lks:   make([]sync.Locker, ranks),
	}
	t0 := time.Now()
	var err error
	if e.cluster, err = boot(transport); err != nil {
		return nil, fmt.Errorf("boot %s: %w", transport, err)
	}
	errs := make([]error, ranks)
	onRanks(func(r int) { e.phs[r], errs[r] = core.Init(e.bes[r], core.Config{}) })
	if err := firstErr(errs); err != nil {
		e.close()
		return nil, fmt.Errorf("init: %w", err)
	}
	var reg, exg, comm [ranks]time.Duration
	onRanks(func(r int) {
		t := time.Now()
		rb, lk, err := e.phs[r].RegisterBuffer(bufs[r])
		if err != nil {
			errs[r] = fmt.Errorf("register: %w", err)
			return
		}
		e.lks[r] = lk
		reg[r] = time.Since(t)
		t = time.Now()
		if e.descs[r], err = e.phs[r].ExchangeBuffers(rb); err != nil {
			errs[r] = fmt.Errorf("exchange: %w", err)
			return
		}
		exg[r] = time.Since(t)
		t = time.Now()
		e.comms[r] = collectives.NewWithConfig(e.phs[r], collectives.Config{})
		if err := e.comms[r].Barrier(); err != nil {
			errs[r] = fmt.Errorf("first barrier: %w", err)
			return
		}
		comm[r] = time.Since(t)
	})
	if err := firstErr(errs); err != nil {
		e.close()
		return nil, err
	}
	e.times = setupTimes{total: time.Since(t0), register: reg[0], exchange: exg[0], comm: comm[0]}
	return e, nil
}

// close tears the job down: engines first, then the transport under them.
func (e *env) close() {
	for _, p := range e.phs {
		if p != nil {
			p.Close()
		}
	}
	e.closed()
}

// onRanks runs fn once per rank concurrently and waits for all of them:
// Photon's set-up calls are collective.
func onRanks(fn func(r int)) {
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(r)
		}(r)
	}
	wg.Wait()
}

func firstErr(errs []error) error {
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// setupRepeats is how many times a run sets the job up; setup_s is the
// median, and the last job is the one measured.
const setupRepeats = 31

// setUp boots the job setupRepeats times, closing all but the last,
// and returns the last job with every set-up's times.
func setUp(transport string, mkBufs func() [][]byte) (*env, []setupTimes, error) {
	var all []setupTimes
	for i := 0; ; i++ {
		bufs := mkBufs()
		// Start like a fresh process: earlier jobs' memory is collected
		// and returned to the OS, so every set-up faults its memory in
		// as a first one would. Without this, whether a set-up reuses
		// warm pages or triggers a collection varies from run to run,
		// and so does its time.
		debug.FreeOSMemory()
		e, err := newEnv(transport, bufs)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, e.times)
		if i == setupRepeats-1 {
			return e, all, nil
		}
		e.close()
	}
}
