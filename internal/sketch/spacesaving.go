package sketch

import "sort"

// SpaceSaving finds frequent elements ("heavy hitters") with k counters
// (Metwally et al.). Any element with true frequency > N/k is guaranteed to
// be among the counters, and each reported count overestimates the truth by
// at most its stored error.
type SpaceSaving struct {
	k      int
	counts map[string]uint64
	errs   map[string]uint64
}

// NewSpaceSaving creates a summary with k counters.
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving{k: k, counts: map[string]uint64{}, errs: map[string]uint64{}}
}

// Add observes key occurring count times.
func (s *SpaceSaving) Add(key string, count uint64) {
	if _, ok := s.counts[key]; ok {
		s.counts[key] += count
		return
	}
	if len(s.counts) < s.k {
		s.counts[key] = count
		s.errs[key] = 0
		return
	}
	// Evict the minimum counter; the newcomer inherits its count as error.
	minKey, minVal := "", uint64(0)
	first := true
	for k2, v := range s.counts {
		if first || v < minVal || (v == minVal && k2 < minKey) {
			minKey, minVal, first = k2, v, false
		}
	}
	delete(s.counts, minKey)
	delete(s.errs, minKey)
	s.counts[key] = minVal + count
	s.errs[key] = minVal
}

// Entry is one reported heavy hitter.
type Entry struct {
	Key   string
	Count uint64 // estimated count (may overcount by Err)
	Err   uint64 // maximum overcount
}

// Top returns up to n entries by estimated count, descending (ties by key).
func (s *SpaceSaving) Top(n int) []Entry {
	out := make([]Entry, 0, len(s.counts))
	for k, v := range s.counts {
		out = append(out, Entry{Key: k, Count: v, Err: s.errs[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
