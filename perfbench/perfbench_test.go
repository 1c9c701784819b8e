package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// opSequence lists the first n ops every workload derives from seed.
func opSequence(seed uint64, n int) []any {
	var seq []any
	for s := uint64(1); s <= uint64(n); s++ {
		seq = append(seq, newLatOp(seed, s))
		for r := 0; r < ranks; r++ {
			seq = append(seq, newStreamOp(seed, r, s))
			v := make([]float64, bspSmallLen)
			bspSmall(v, seed, r, s)
			seq = append(seq, v)
		}
	}
	return append(seq, []byte(newTape(seed, 256)), []byte(streamSrc(seed, 0)[:256]))
}

func TestSameSeedSameOps(t *testing.T) {
	if !reflect.DeepEqual(opSequence(7, 500), opSequence(7, 500)) {
		t.Fatal("seed 7 produced two different op sequences")
	}
}

func TestOtherSeedOtherOps(t *testing.T) {
	a, b := opSequence(7, 500), opSequence(8, 500)
	same := 0
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			same++
		}
	}
	// Identical kinds and sizes happen by chance; identical sequences
	// must not.
	if same > len(a)/4 {
		t.Fatalf("seeds 7 and 8 agree on %d of %d ops", same, len(a))
	}
}

func TestOpMix(t *testing.T) {
	kinds := map[int]int{}
	sizes := map[int]int{}
	const n = 20000
	for s := uint64(1); s <= n; s++ {
		op := newStreamOp(3, 0, s)
		kinds[op.kind]++
		if op.kind == kPut || op.kind == kGet {
			if op.size < 8 || op.size > streamMaxBytes {
				t.Fatalf("op %d: size %d outside 8 B-64 KiB", s, op.size)
			}
			if op.size <= 1024 {
				sizes[0]++
			} else {
				sizes[1]++
			}
		}
		if op.kind == kSend && (op.size < streamSendMin || op.size > streamSendMax) {
			t.Fatalf("op %d: send size %d", s, op.size)
		}
		if op.srcOff+op.size > streamSrcBytes || op.tapeOff+op.size > streamTapeBytes {
			t.Fatalf("op %d reads past its source: %+v", s, op)
		}
	}
	want := map[int]float64{kPut: 0.55, kGet: 0.25, kFA: 0.10, kSend: 0.10}
	for k, share := range want {
		if got := float64(kinds[k]) / n; got < share-0.02 || got > share+0.02 {
			t.Errorf("kind %d: share %.3f, want %.2f", k, got, share)
		}
	}
	if sizes[0] == 0 || sizes[1] == 0 {
		t.Errorf("put/get sizes do not straddle 1 KiB: %v", sizes)
	}
}

func TestPayloadCheckCatchesOneByte(t *testing.T) {
	tp := newTape(5, 4096)
	buf := make([]byte, 300)
	tp.fillPayload(buf, 42, 128)
	if !tp.checkPayload(buf, 42, 128) {
		t.Fatal("intact payload rejected")
	}
	if tp.checkPayload(buf, 43, 128) {
		t.Fatal("payload accepted for the wrong op")
	}
	for _, i := range []int{0, 7, 8, 299} {
		buf[i] ^= 0x10
		if tp.checkPayload(buf, 42, 128) {
			t.Errorf("payload with byte %d flipped accepted", i)
		}
		buf[i] ^= 0x10
	}
}

// firstOp returns the first sequence number whose op has kind.
func firstOp(kind int, op func(seq uint64) int) uint64 {
	for s := uint64(1); ; s++ {
		if op(s) == kind {
			return s
		}
	}
}

func TestCorruptByteFailsLatency(t *testing.T) {
	const seed = 11
	e, err := newEnv("shm", latencyBufs(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	// Flip one byte of rank 1's get source where the first get reads.
	s := firstOp(kGet, func(s uint64) int { return newLatOp(seed, s).kind })
	e.bufs[1][latSrcOff+newLatOp(seed, s).srcOff+3] ^= 1
	p := newLatency(e, seed).phase(200*time.Millisecond, false)
	if _, failed := p.attempted(); failed == 0 || p.err() == nil {
		t.Fatal("corrupted get source went unnoticed")
	}
}

func TestCorruptByteFailsStream(t *testing.T) {
	const seed = 12
	e, err := newEnv("tcp", streamBufs(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	s := firstOp(kGet, func(s uint64) int { return newStreamOp(seed, 0, s).kind })
	op := newStreamOp(seed, 0, s)
	e.bufs[1][op.srcOff+op.size-1] ^= 0x80
	p := newStream(e, seed).phase(200*time.Millisecond, false)
	if _, failed := p.attempted(); failed == 0 || p.err() == nil {
		t.Fatal("corrupted get source went unnoticed")
	}
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for n := range workloads {
		code = append(code, n)
	}
	sort.Strings(names)
	sort.Strings(code)
	if !reflect.DeepEqual(names, code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's list")
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, endToEnd[i])
		}
	}
}

// TestSmoke runs every workload briefly in both modes and checks that
// every named metric is emitted with its unit.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(options{workload: name, seed: 2, dur: 400 * time.Millisecond, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s missing or mis-united: %+v", name, traced, s.Name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", name, s.Name, m.Value)
				}
			}
		}
	}
}
