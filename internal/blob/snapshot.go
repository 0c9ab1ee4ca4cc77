package blob

import (
	"fmt"
	"sort"
)

// Verification reads for the conformance explorer (internal/conform): pure
// lock-only snapshots paying no modelled latency — observing final state must
// not move the clock.

// Buckets returns every bucket name, sorted.
func (s *Store) Buckets() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.buckets))
	for n := range s.buckets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SnapshotObjects returns copies of every object in a bucket.
func (s *Store) SnapshotObjects(bucketName string) (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoBucket, bucketName)
	}
	out := map[string][]byte{}
	for key, o := range b.objects {
		out[key] = append([]byte(nil), o.data...)
	}
	return out, nil
}
