package oram

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blob"
	"repro/internal/simclock"
)

func newORAM(t *testing.T, n int, seed int64) *Client {
	t.Helper()
	store := blob.New(simclock.Real{}, nil, blob.LatencyModel{})
	if err := store.CreateBucket("oram", "t"); err != nil {
		t.Fatal(err)
	}
	c, err := New(store, "oram", "tree", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newORAM(t, 16, 1)
	if err := c.Write(3, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(3)
	if err != nil || string(got) != "secret" {
		t.Fatalf("Read = %q %v", got, err)
	}
	// Overwrite.
	if err := c.Write(3, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Read(3)
	if string(got) != "updated" {
		t.Fatalf("after overwrite: %q", got)
	}
}

func TestReadAbsentBlock(t *testing.T) {
	c := newORAM(t, 8, 2)
	if _, err := c.Read(5); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Read(99); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Write(-1, nil); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("err = %v", err)
	}
}

// TestModelEquivalence: a random read/write sequence must match a map model.
func TestModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		c := newORAM(t, 32, seed)
		rng := rand.New(rand.NewSource(seed + 1))
		model := map[int64]string{}
		for op := 0; op < 150; op++ {
			id := rng.Int63n(32)
			if rng.Intn(2) == 0 {
				val := fmt.Sprintf("v%d", rng.Intn(1000))
				if err := c.Write(id, []byte(val)); err != nil {
					return false
				}
				model[id] = val
			} else {
				got, err := c.Read(id)
				want, exists := model[id]
				if exists != (err == nil) {
					return false
				}
				if exists && string(got) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestAccessPatternUniform: every access touches exactly one root-to-leaf
// path — (L+1) bucket reads and (L+1) bucket writes — independent of which
// block is accessed or whether it is a read or a write. This is the §6
// property: the server cannot distinguish accesses.
func TestAccessPatternUniform(t *testing.T) {
	c := newORAM(t, 64, 3)
	pathLen := int64(c.Levels() + 1)
	ops := []func() error{
		func() error { return c.Write(0, []byte("a")) },
		func() error { return c.Write(63, []byte("b")) },
		func() error { _, err := c.Read(0); return err },
		func() error { _, err := c.Read(63); return err },
		func() error { _, err := c.Read(17); return err }, // absent block
	}
	for i, op := range ops {
		r0, w0 := c.Reads, c.Writes
		_ = op() // absent-read error is fine; the pattern is what matters
		if c.Reads-r0 != pathLen || c.Writes-w0 != pathLen {
			t.Fatalf("op %d: touched %d reads / %d writes, want %d each (uniform path)",
				i, c.Reads-r0, c.Writes-w0, pathLen)
		}
	}
}

// TestPositionRemapping: accessing the same block repeatedly must not keep
// touching the same leaf path (the position map re-randomizes every access).
func TestPositionRemapping(t *testing.T) {
	c := newORAM(t, 64, 4)
	if err := c.Write(7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	leaves := map[int64]bool{}
	for i := 0; i < 30; i++ {
		leaves[c.pos[7]] = true
		if _, err := c.Read(7); err != nil {
			t.Fatal(err)
		}
	}
	if len(leaves) < 10 {
		t.Fatalf("block 7 stayed on %d distinct leaves over 30 accesses — positions not re-randomized", len(leaves))
	}
}

// TestStashStaysBounded: sustained random load must not blow up the stash
// (Path ORAM's stash is O(log N) with overwhelming probability).
func TestStashStaysBounded(t *testing.T) {
	c := newORAM(t, 128, 5)
	rng := rand.New(rand.NewSource(6))
	maxStash := 0
	for op := 0; op < 2000; op++ {
		id := rng.Int63n(128)
		if err := c.Write(id, []byte("data")); err != nil {
			t.Fatal(err)
		}
		if s := len(c.stash); s > maxStash {
			maxStash = s
		}
	}
	if maxStash > 60 {
		t.Fatalf("stash peaked at %d for N=128 — should stay O(log N)", maxStash)
	}
}

func TestManyBlocksPersist(t *testing.T) {
	c := newORAM(t, 64, 7)
	for i := int64(0); i < 64; i++ {
		if err := c.Write(i, []byte(fmt.Sprintf("block-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 64; i++ {
		got, err := c.Read(i)
		if err != nil || string(got) != fmt.Sprintf("block-%d", i) {
			t.Fatalf("block %d = %q %v", i, got, err)
		}
	}
}
