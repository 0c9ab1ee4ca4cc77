// Package sketch implements the streaming data sketches that the platform's
// workloads run, from the family §5.1 of the paper identifies as natural
// serverless analytics workloads: frequency (Count-Min, the paper's Figure 3
// example) and heavy hitters (SpaceSaving).
package sketch

import "hash/fnv"

// hash2 returns two independent 64-bit hashes of key; the i-th derived hash
// is h1 + i·h2 (Kirsch-Mitzenmacher double hashing). FNV output is passed
// through a splitmix64 finalizer: raw FNV has poor avalanche on short keys.
func hash2(key string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(key))
	h1 := mix(h.Sum64())
	h.Write([]byte{0x9e, 0x37, 0x79, 0xb9})
	h2 := mix(h.Sum64()) | 1 // odd, so all derived hashes differ
	return h1, h2
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashAt derives the i-th hash value for key.
func hashAt(key string, i int) uint64 {
	h1, h2 := hash2(key)
	return h1 + uint64(i)*h2
}
