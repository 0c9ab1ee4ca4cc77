package sketch

import "testing"

// FuzzCountMinNoUndercount: for arbitrary key bytes, estimates never drop
// below the true count of that exact key.
func FuzzCountMinNoUndercount(f *testing.F) {
	f.Add("key", uint8(3))
	f.Add("", uint8(1))
	f.Add("\x00\xff", uint8(7))
	f.Fuzz(func(t *testing.T, key string, times uint8) {
		cm := NewCountMinWH(64, 4)
		n := uint64(times)%16 + 1
		for i := uint64(0); i < n; i++ {
			cm.Add(key, 1)
		}
		if got := cm.Estimate(key); got < n {
			t.Fatalf("undercount: %d < %d for %q", got, n, key)
		}
	})
}
