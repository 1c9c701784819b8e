package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Spans are recorded by the benchmark around its own calls into each
// layer; nothing inside the program is instrumented. A root span is
// one op (rma-latency), one step (bsp-steps) or one turn of a rank's
// progress loop (rma-stream); its children are the calls made inside
// it. Children never overlap and never nest, so a root's self time is
// its duration minus the sum of its children's.

type spanName uint8

const (
	spRoot spanName = iota
	spPost
	spWait
	spProgress
	spPop
	spPark
	spAllreduceSmall
	spBarrier
	spAllreduceLarge
	spRawPost
	spRawPoll
	numSpans
)

var spanNames = [numSpans]string{
	"root", "core.post", "core.wait", "core.progress", "core.pop", "idle.park",
	"coll.allreduce_small", "coll.barrier", "coll.allreduce_large", "raw.post", "raw.poll",
}

// Layers that self time is attributed to.
const (
	lBench = iota // the benchmark's own work inside a root: generation, checks
	lCore
	lColl
	lIdle    // parked on the backend's notify channel
	lBackend // raw backend calls: transport floor only
	numLayers
)

var layerNames = [numLayers]string{"bench", "core", "coll", "idle", "backend"}

var spanLayer = [numSpans]int{lBench, lCore, lCore, lCore, lCore, lIdle, lColl, lColl, lColl, lBackend, lBackend}

type span struct {
	start, end int64 // ns since the tracer's epoch
	op         uint64
	parent     int32 // index of the root in the buffer, -1 for a root or when the root was dropped
	name       spanName
}

// tracer belongs to one goroutine. A nil *tracer records nothing, so
// untraced phases pay one nil check per call site.
type tracer struct {
	epoch time.Time
	buf   []span // preallocated; spans past its capacity are not kept

	dur  [numSpans]hist  // duration of every span, by name
	self [numLayers]hist // per root: time each layer covered inside it
	// selfTotal sums self time per layer over all roots.
	selfTotal [numLayers]int64

	op        uint64
	rootStart int64
	rootIdx   int32
	cover     [numLayers]int64
}

// spanCap bounds the spans a tracer keeps for the dump; aggregation
// covers every span regardless.
const spanCap = 1 << 15

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, buf: make([]span, 0, spanCap)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) push(s span) int32 {
	if len(t.buf) == cap(t.buf) {
		return -1
	}
	t.buf = append(t.buf, s)
	return int32(len(t.buf) - 1)
}

// begin opens a root span for op.
func (t *tracer) begin(op uint64) {
	if t == nil {
		return
	}
	t.op = op
	t.rootStart = t.now()
	t.cover = [numLayers]int64{}
	t.rootIdx = t.push(span{start: t.rootStart, op: op, parent: -1, name: spRoot})
}

// child records a call that started at start (from now) and ends now.
func (t *tracer) child(name spanName, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	d := end - start
	t.dur[name].add(d)
	t.cover[spanLayer[name]] += d
	t.push(span{start: start, end: end, op: t.op, parent: t.rootIdx, name: name})
}

// end closes the open root and attributes its time to layers.
func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	d := end - t.rootStart
	if t.rootIdx >= 0 {
		t.buf[t.rootIdx].end = end
	}
	t.dur[spRoot].add(d)
	self := d
	for l := lCore; l < numLayers; l++ {
		self -= t.cover[l]
		t.self[l].add(t.cover[l])
		t.selfTotal[l] += t.cover[l]
	}
	t.self[lBench].add(self)
	t.selfTotal[lBench] += self
}

// merge folds o's aggregates into t (spans are dumped per tracer).
func (t *tracer) merge(o *tracer) {
	for i := range t.dur {
		t.dur[i].merge(&o.dur[i])
	}
	for l := range t.self {
		t.self[l].merge(&o.self[l])
		t.selfTotal[l] += o.selfTotal[l]
	}
}

// dumpSpans writes every kept span of the given tracers as CSV.
func dumpSpans(path string, trs map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer,op,name,parent,start_ns,end_ns")
	for label, t := range trs {
		for _, s := range t.buf {
			fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d\n", label, s.op, spanNames[s.name], s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
