// Package bioseq implements the sequence-comparison workload of §5.1 (Niu
// et al. [150]): Smith-Waterman local alignment and all-to-all pairwise
// comparison of protein sequences, fanned out over serverless functions.
// Sequences are synthetic (the substitution for protein databases we do not
// ship), but the alignment scores are exact, so the serverless fan-out can
// be validated bit-for-bit against the serial baseline.
package bioseq

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/faas"
)

// ErrBadInput is returned for invalid workloads.
var ErrBadInput = errors.New("bioseq: invalid input")

// aminoAcids is the 20-letter protein alphabet.
const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// RandomProtein generates a synthetic protein sequence of length n,
// deterministic under seed.
func RandomProtein(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = aminoAcids[rng.Intn(len(aminoAcids))]
	}
	return string(b)
}

// RandomProteins generates count sequences with lengths in [minLen, maxLen].
func RandomProteins(count, minLen, maxLen int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, count)
	for i := range out {
		n := minLen
		if maxLen > minLen {
			n += rng.Intn(maxLen - minLen + 1)
		}
		out[i] = RandomProtein(n, rng.Int63())
	}
	return out
}

// Scoring parameterizes Smith-Waterman.
type Scoring struct {
	Match    int // score for a matching residue (>0)
	Mismatch int // score for a mismatch (<0)
	Gap      int // linear gap penalty (<0)
}

// DefaultScoring is a common +2/-1/-1 scheme.
func DefaultScoring() Scoring { return Scoring{Match: 2, Mismatch: -1, Gap: -1} }

// SmithWaterman returns the optimal local alignment score of a and b.
func SmithWaterman(a, b string, s Scoring) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			sub := s.Mismatch
			if a[i-1] == b[j-1] {
				sub = s.Match
			}
			v := prev[j-1] + sub
			if up := prev[j] + s.Gap; up > v {
				v = up
			}
			if left := cur[j-1] + s.Gap; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// Pair identifies one comparison (I < J).
type Pair struct {
	I, J int
}

// AllPairs enumerates the upper triangle of an n×n comparison.
func AllPairs(n int) []Pair {
	var out []Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Pair{i, j})
		}
	}
	return out
}

// AllPairsSerial computes every pairwise score on one node. The result maps
// pair (i,j), i<j, to its score.
func AllPairsSerial(seqs []string, s Scoring) map[Pair]int {
	out := make(map[Pair]int)
	for _, p := range AllPairs(len(seqs)) {
		out[p] = SmithWaterman(seqs[p.I], seqs[p.J], s)
	}
	return out
}

// ServerlessConfig parameterizes the fan-out.
type ServerlessConfig struct {
	// Workers is the number of batches the pair list splits into (one
	// function invocation each). Default 8.
	Workers int
	// WorkPerCell models compute time per DP cell on the platform clock.
	WorkPerCell time.Duration
}

// tenant owns the worker function.
const tenant = "bioseq"

func (c ServerlessConfig) withDefaults() ServerlessConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// AllPairsServerless fans the all-to-all comparison out over FaaS workers
// ([150]'s design). Scores are identical to AllPairsSerial.
func AllPairsServerless(p *faas.Platform, seqs []string, s Scoring, cfg ServerlessConfig) (map[Pair]int, error) {
	if len(seqs) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 sequences", ErrBadInput)
	}
	cfg = cfg.withDefaults()
	pairs := AllPairs(len(seqs))
	W := cfg.Workers
	if W > len(pairs) {
		W = len(pairs)
	}

	type batchOut struct {
		Pairs  []Pair `json:"pairs"`
		Scores []int  `json:"scores"`
	}
	fnName := fmt.Sprintf("seqcmp-%d-%d", len(seqs), W)
	worker := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var batch []Pair
		if err := json.Unmarshal(payload, &batch); err != nil {
			return nil, err
		}
		out := batchOut{Pairs: batch, Scores: make([]int, len(batch))}
		var cells int64
		for i, pr := range batch {
			out.Scores[i] = SmithWaterman(seqs[pr.I], seqs[pr.J], s)
			cells += int64(len(seqs[pr.I])) * int64(len(seqs[pr.J]))
		}
		ctx.Work(time.Duration(cells) * cfg.WorkPerCell)
		return json.Marshal(out)
	}
	if err := p.Register(fnName, tenant, worker, faas.Config{
		ColdStart:  100 * time.Millisecond,
		Timeout:    time.Hour,
		MaxRetries: -1,
	}); err != nil {
		return nil, err
	}
	defer p.UnregisterFor(tenant, fnName)

	var payloads [][]byte
	for w := 0; w < W; w++ {
		lo, hi := w*len(pairs)/W, (w+1)*len(pairs)/W
		if lo >= hi {
			continue
		}
		payload, _ := json.Marshal(pairs[lo:hi])
		payloads = append(payloads, payload)
	}
	outs, errs := faas.Drive(p, tenant, fnName, payloads, make([]time.Duration, len(payloads))).Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	results := make(map[Pair]int, len(pairs))
	for _, res := range outs {
		var out batchOut
		if json.Unmarshal(res.Output, &out) == nil {
			for i, pr := range out.Pairs {
				results[pr] = out.Scores[i]
			}
		}
	}
	return results, nil
}
