package tcp

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzExgResp drives decodeExgResp with arbitrary response bodies. The
// blob count and every blob length come off the wire, so every input
// must either be rejected or decode to blobs that fit in the body and
// re-encode to the same bytes. The count must be checked against the
// body before it sizes an allocation: a 4-byte body can claim 2^32-1
// blobs.
func FuzzExgResp(f *testing.F) {
	valid := encodeExgResp([][]byte{[]byte("rank0"), {}, []byte("rank-two")})
	f.Add(valid[1:])
	huge := bytes.Clone(valid[1:])
	binary.LittleEndian.PutUint32(huge, ^uint32(0))
	f.Add(huge)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	liar := bytes.Clone(valid[1:])
	binary.LittleEndian.PutUint32(liar[4:], 1<<31)
	f.Add(liar)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		out, err := decodeExgResp(body)
		if err != nil {
			return
		}
		total := 4
		for _, blob := range out {
			total += 4 + len(blob)
		}
		if total > len(body) {
			t.Fatalf("decoded %d blobs spanning %d bytes from a %d-byte body", len(out), total, len(body))
		}
		if re := encodeExgResp(out)[1:]; !bytes.Equal(re, body[:total]) {
			t.Fatalf("re-encoding differs: %x vs %x", re, body[:total])
		}
	})
}
