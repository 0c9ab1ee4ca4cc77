package workload

import (
	"fmt"
	"math/rand"
)

// ZipfKeys draws count keys from a Zipf(s) distribution over a universe of n
// distinct keys ("key-0" … "key-{n-1}"), seeded for determinism. Skewed key
// popularity is the regime where frequency sketches such as Count-Min (§5.1,
// Figure 3) earn their keep.
func ZipfKeys(n uint64, s float64, count int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, n-1)
	out := make([]string, count)
	for i := range out {
		out[i] = fmt.Sprintf("key-%d", z.Uint64())
	}
	return out
}

// Payload returns a deterministic pseudo-random byte payload of the given size.
func Payload(size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, size)
	rng.Read(b)
	return b
}
