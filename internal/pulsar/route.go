package pulsar

import (
	"encoding/json"
	"fmt"
)

// hashSpace is the key-hash space partitioned topics route over: fnv1a
// hashes are 32-bit.
const hashSpace = uint64(1) << 32

// topicMeta is the durable metadata under /pulsar/topics/<name>: how many
// partitions a topic was created with, zero for a plain topic and for each
// concrete partition. A topic keeps its partitions for life, as in Pulsar,
// whose load manager moves topics between brokers and never re-ranges one.
type topicMeta struct {
	Partitions int `json:"partitions"`
}

// partitionOf routes a key hash to one of n partitions: the hash space cut
// into n equal contiguous ranges, the last also taking the remainder.
func partitionOf(h uint32, n int) int {
	return min(int(uint64(h)/(hashSpace/uint64(n))), n-1)
}

// partitionNames lists a topic's concrete topics in partition order: the
// topic itself when it is plain (n <= 0).
func partitionNames(topic string, n int) []string {
	if n <= 0 {
		return []string{topic}
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s-partition-%d", topic, i)
	}
	return names
}

// partitions returns a logical topic's concrete topics in partition order,
// read from the coordination service once and then cached: producers route
// over them and consumers attach to them in this order.
func (c *Cluster) partitions(topic string) ([]string, error) {
	if v, ok := c.routes.Load(topic); ok {
		return v.([]string), nil
	}
	raw, _, err := c.meta.Get("/pulsar/topics/" + topic)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrNoTopic, topic)
	}
	var md topicMeta
	if err := json.Unmarshal(raw, &md); err != nil {
		return nil, err
	}
	v, _ := c.routes.LoadOrStore(topic, partitionNames(topic, md.Partitions))
	return v.([]string), nil
}
