// Package bench contains the measurement routines behind every table
// and figure of the reconstructed evaluation. cmd/photon-bench and the
// top-level testing.B benchmarks both call into this package so the CLI
// harness and `go test -bench` print the same quantities.
//
// Each routine isolates one comparison the paper's evaluation makes:
// one-sided ledger completion versus two-sided matching at equal
// transport cost (both run over the identical simulated NIC), eager
// versus rendezvous, ledger sizing, injector scaling, backend
// portability, and NIC atomics.
package bench

import (
	"fmt"
	"net"
	"sync"

	"photon/internal/backend/shm"
	"photon/internal/backend/tcp"
	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/msg"
	"photon/internal/nicsim"
)

// Obs, when set, carries observability sinks into every Photon the
// harness boots: experiments construct their own configs deep inside
// Run, so the CLI debug flags publish a shared trace ring / metrics
// registry here instead of threading parameters through every
// experiment signature. Explicit sinks in an experiment's own config
// win over the overlay.
var Obs core.Config

// ShardsOverride, when non-zero, forces EngineShards on every Photon
// the harness boots whose config leaves it defaulted (the CLI -shards
// flag). Experiments that sweep shard counts themselves (E14) instead
// restrict their sweep to this value.
var ShardsOverride int

// BackendOverride, when non-empty, restricts backend-sweep experiments
// to one transport: "vsim", "tcp", or "shm" (the CLI -backend flag).
var BackendOverride string

func overlayObs(cfg core.Config) core.Config {
	if cfg.EngineShards == 0 && ShardsOverride != 0 {
		cfg.EngineShards = ShardsOverride
	}
	if cfg.Trace == nil {
		cfg.Trace = Obs.Trace
	}
	if cfg.MetricsTo == nil {
		cfg.MetricsTo = Obs.MetricsTo
	}
	if Obs.Metrics {
		cfg.Metrics = true
	}
	if cfg.TraceSampleShift == 0 {
		cfg.TraceSampleShift = Obs.TraceSampleShift
	}
	return cfg
}

// Env bundles a Photon job and a two-sided baseline job built over
// identical transports (separate fabrics with the same model so the
// two stacks don't contend).
type Env struct {
	Cluster *vsim.Cluster
	Phs     []*core.Photon
	MsgJob  *msg.Job
}

// NewEnv builds an n-rank environment. fm applies to both stacks.
func NewEnv(n int, fm fabric.Model, coreCfg core.Config, msgCfg msg.Config) (*Env, error) {
	cl, err := vsim.NewCluster(n, fm, nicsim.Config{})
	if err != nil {
		return nil, err
	}
	phs, err := initPhotons(cl, coreCfg)
	if err != nil {
		cl.Close()
		return nil, err
	}
	job, err := msg.NewJob(n, fm, nicsim.Config{}, msgCfg)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &Env{Cluster: cl, Phs: phs, MsgJob: job}, nil
}

// NewPhotonOnly builds just the Photon side (for experiments without a
// baseline axis).
func NewPhotonOnly(n int, fm fabric.Model, coreCfg core.Config) (*Env, error) {
	cl, err := vsim.NewCluster(n, fm, nicsim.Config{})
	if err != nil {
		return nil, err
	}
	phs, err := initPhotons(cl, coreCfg)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &Env{Cluster: cl, Phs: phs}, nil
}

func initPhotons(cl *vsim.Cluster, cfg core.Config) ([]*core.Photon, error) {
	cfg = overlayObs(cfg)
	n := len(cl.Backends())
	phs := make([]*core.Photon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			phs[r], errs[r] = core.Init(cl.Backend(r), cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return phs, nil
}

// Close releases both stacks.
func (e *Env) Close() {
	if e.Phs != nil {
		for _, p := range e.Phs {
			p.Close()
		}
	}
	if e.Cluster != nil {
		e.Cluster.Close()
	}
	if e.MsgJob != nil {
		e.MsgJob.Close()
	}
}

// SharedBuffers registers one buffer of size bytes at every rank and
// exchanges descriptors, returning per-rank views: bufs[r] is rank r's
// local buffer, descs[r][p] is rank p's buffer as seen by rank r.
func (e *Env) SharedBuffers(size int) (bufs [][]byte, descs [][]mem.RemoteBuffer, lks []sync.Locker, err error) {
	return ShareBuffers(e.Phs, size)
}

// ShareBuffers is SharedBuffers for a bare Photon set (any backend —
// the TCP experiments have no Env).
func ShareBuffers(phs []*core.Photon, size int) (bufs [][]byte, descs [][]mem.RemoteBuffer, lks []sync.Locker, err error) {
	n := len(phs)
	bufs = make([][]byte, n)
	descs = make([][]mem.RemoteBuffer, n)
	lks = make([]sync.Locker, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bufs[r] = make([]byte, size)
			rb, lk, err := phs[r].RegisterBuffer(bufs[r])
			if err != nil {
				errs[r] = err
				return
			}
			lks[r] = lk
			descs[r], errs[r] = phs[r].ExchangeBuffers(rb)
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, nil, nil, e
		}
	}
	return bufs, descs, lks, nil
}

// NewShmPhotons boots an n-rank Photon job over the intra-host
// shared-memory backend (same-process peers, direct access).
func NewShmPhotons(n int, cfg core.Config) ([]*core.Photon, func(), error) {
	cfg = overlayObs(cfg)
	cl, err := shm.NewCluster(n, shm.Config{})
	if err != nil {
		return nil, nil, err
	}
	phs := make([]*core.Photon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			phs[r], errs[r] = core.Init(cl.Backend(r), cfg)
		}(r)
	}
	wg.Wait()
	cleanup := func() {
		for _, p := range phs {
			if p != nil {
				p.Close()
			}
		}
		cl.Close()
	}
	for r, err := range errs {
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("shm rank %d: %w", r, err)
		}
	}
	return phs, cleanup, nil
}

// NewTCPPhotons boots an n-rank Photon job over the loopback TCP
// backend (for the backend-comparison experiment).
func NewTCPPhotons(n int, cfg core.Config) ([]*core.Photon, func(), error) {
	phs, _, cleanup, err := NewTCPPhotonsFT(n, cfg, nil)
	return phs, cleanup, err
}

// NewTCPPhotonsFT is NewTCPPhotons with the transport's recovery knobs
// exposed: tune edits each rank's tcp.Config before dialing, and the
// returned backends let fault experiments sever live connections.
func NewTCPPhotonsFT(n int, cfg core.Config, tune func(*tcp.Config)) ([]*core.Photon, []*tcp.Backend, func(), error) {
	cfg = overlayObs(cfg)
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	bes := make([]*tcp.Backend, n)
	phs := make([]*core.Photon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tc := tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r]}
			if tune != nil {
				tune(&tc)
			}
			be, err := tcp.New(tc)
			if err != nil {
				errs[r] = err
				return
			}
			bes[r] = be
			phs[r], errs[r] = core.Init(be, cfg)
		}(r)
	}
	wg.Wait()
	cleanup := func() {
		for _, p := range phs {
			if p != nil {
				p.Close()
			}
		}
	}
	for r, err := range errs {
		if err != nil {
			cleanup()
			return nil, nil, nil, fmt.Errorf("tcp rank %d: %w", r, err)
		}
	}
	return phs, bes, cleanup, nil
}
