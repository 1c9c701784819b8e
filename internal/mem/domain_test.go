package mem

import (
	"encoding/binary"
	"errors"
	"testing"
)

// TestDomainChecks pins the domain's rkey, bounds, address-wrap and
// alignment checks on every apply kind, and that a failed apply leaves
// memory and the write-activity count untouched.
func TestDomainChecks(t *testing.T) {
	var d Domain
	buf := make([]byte, 64)
	rb, _, err := d.Register(buf)
	if err != nil {
		t.Fatal(err)
	}
	act, ok := d.WriteActivity(rb)
	if !ok {
		t.Fatal("no write activity for a live registration")
	}
	if _, ok := d.WriteActivity(RemoteBuffer{RKey: rb.RKey + 1}); ok {
		t.Fatal("write activity for an unknown rkey")
	}
	if _, _, err := d.Register(nil); !errors.Is(err, ErrBadSize) {
		t.Fatalf("empty registration: %v", err)
	}

	cases := []struct {
		name  string
		apply func() error
		want  error
	}{
		{"write unknown rkey", func() error { return d.Write(rb.Addr, rb.RKey+1, make([]byte, 8)) }, ErrUnknownRKey},
		{"write past end", func() error { return d.Write(rb.Addr+60, rb.RKey, make([]byte, 8)) }, ErrOutOfBounds},
		{"write below base", func() error { return d.Write(rb.Addr-8, rb.RKey, make([]byte, 8)) }, ErrOutOfBounds},
		{"write wraps", func() error { return d.Write(^uint64(0)-7, rb.RKey, make([]byte, 16)) }, ErrOutOfBounds},
		{"read past end", func() error { return d.Read(make([]byte, 65), rb.Addr, rb.RKey) }, ErrOutOfBounds},
		{"read unknown rkey", func() error { return d.Read(make([]byte, 8), rb.Addr, 0) }, ErrUnknownRKey},
		{"fetch-add misaligned", func() error { _, err := d.FetchAdd(rb.Addr+3, rb.RKey, 1); return err }, ErrMisaligned},
		{"comp-swap misaligned", func() error { _, err := d.CompSwap(rb.Addr+12, rb.RKey, 0, 1); return err }, ErrMisaligned},
		{"fetch-add past end", func() error { _, err := d.FetchAdd(rb.Addr+64, rb.RKey, 1); return err }, ErrOutOfBounds},
	}
	for _, c := range cases {
		if err := c.apply(); !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.want)
		}
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("failed applies changed byte %d to %#x", i, v)
		}
	}
	if act() != 0 {
		t.Fatalf("failed applies advanced write activity to %d", act())
	}

	// The last in-bounds bytes and aligned words apply, and each write
	// or atomic advances the activity count once.
	if err := d.Write(rb.Addr+56, rb.RKey, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if old, err := d.FetchAdd(rb.Addr+56, rb.RKey, 1); err != nil || old != 0x0807060504030201 {
		t.Fatalf("fetch-add: old %#x err %v", old, err)
	}
	if old, err := d.CompSwap(rb.Addr+56, rb.RKey, 0, 9); err != nil || old != 0x0807060504030202 {
		t.Fatalf("failed comp-swap: old %#x err %v", old, err)
	}
	if _, err := d.CompSwap(rb.Addr+56, rb.RKey, 0x0807060504030202, 9); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := d.Read(got, rb.Addr+56, rb.RKey); err != nil || binary.LittleEndian.Uint64(got) != 9 {
		t.Fatalf("read %x err %v, want 9", got, err)
	}
	if act() != 4 {
		t.Fatalf("write activity %d, want 4", act())
	}
	if err := d.Deregister(rb); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(rb.Addr, rb.RKey, got); !errors.Is(err, ErrUnknownRKey) {
		t.Fatalf("write after deregister: %v", err)
	}
}

// TestDomainApplyAllocs pins the zero-allocation apply path.
func TestDomainApplyAllocs(t *testing.T) {
	var d Domain
	rb, _, err := d.Register(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	src, dst := make([]byte, 16), make([]byte, 16)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = d.Write(rb.Addr, rb.RKey, src)
		_ = d.Read(dst, rb.Addr, rb.RKey)
		_, _ = d.FetchAdd(rb.Addr+16, rb.RKey, 1)
		_, _ = d.CompSwap(rb.Addr+24, rb.RKey, 0, 1)
	})
	if allocs != 0 {
		t.Fatalf("apply path allocates %.1f per round", allocs)
	}
}
