package pulsar

import (
	"fmt"
	"testing"
)

// TestKeyPartitionGolden pins where a key lands on a partitioned topic, for
// the partition counts in use (E6 and the stream benchmark create 4): 64 fixed
// keys, and the hashes at each range edge, the last range taking the
// remainder of the hash space. Key i is "k%04d-%08x" of i and i×2654435761;
// digit i of a row is its partition. A change here moves keys between
// partitions, and with them every per-partition figure.
func TestKeyPartitionGolden(t *testing.T) {
	golden := map[int]string{
		2: "0011001010010010010000111101111001001001010000011111110100110100",
		3: "1022002010121120021100122201222111102002020011021222120210221201",
		4: "1033003020131120131101233302323112102103030111022333221310321301",
		7: "2066005140262350252212356604645223205116160222043665451630552602",
	}
	edges := map[int][][2]uint64{
		2: {{0, 0}, {1<<31 - 1, 0}, {1 << 31, 1}, {1<<32 - 1, 1}},
		3: {{0, 0}, {1431655764, 0}, {1431655765, 1}, {4294967294, 2}, {1<<32 - 1, 2}},
		4: {{0, 0}, {1<<30 - 1, 0}, {1 << 30, 1}, {1<<32 - 1, 3}},
		7: {{0, 0}, {613566755, 0}, {613566756, 1}, {4294967291, 6}, {4294967292, 6}, {1<<32 - 1, 6}},
	}
	e := newEnv(t, 1, 3)
	for n, want := range golden {
		topic := fmt.Sprintf("g%d", n)
		must(t, e.cluster.CreateTopic(topic, n))
		prod, err := e.cluster.CreateProducer(topic)
		must(t, err)
		for i := range 64 {
			key := fmt.Sprintf("k%04d-%08x", i, uint32(i)*2654435761)
			if got, w := prod.routeTo(key), fmt.Sprintf("%s-partition-%c", topic, want[i]); got != w {
				t.Errorf("N=%d: key %q routes to %s, want %s", n, key, got, w)
			}
		}
		for _, edge := range edges[n] {
			if got := partitionOf(uint32(edge[0]), n); got != int(edge[1]) {
				t.Errorf("N=%d: hash %d routes to partition %d, want %d", n, edge[0], got, edge[1])
			}
		}
	}
}
