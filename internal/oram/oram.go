// Package oram implements Path ORAM (Stefanov et al., the paper's citation
// [169]) over the blob store. §6 "Security" observes that FaaS platforms
// "lead to increased network communications due to external storage
// accesses, leaking more information to a network adversary" and proposes
// "security primitives that hide network access patterns in the cloud,
// e.g., using ORAMs".
//
// The client keeps a position map and a stash; the untrusted store holds a
// binary tree of fixed-size buckets. Every logical access — read or write,
// any block — touches exactly one root-to-leaf path (L+1 bucket reads
// followed by L+1 bucket writes), so the server observes a data-independent
// access pattern. Confidentiality would additionally need encryption of
// bucket contents; this reproduction models the *access-pattern* property,
// which is what the paper's claim concerns, and experiment E23 measures its
// bandwidth/latency overhead.
package oram

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/blob"
)

// Errors returned by the client.
var (
	ErrNoBlock  = errors.New("oram: block does not exist")
	ErrBadBlock = errors.New("oram: block id out of range")
	ErrOverflow = errors.New("oram: stash overflow")
)

// Z is the bucket capacity (slots per tree node), per the Path ORAM paper.
const Z = 4

// stashLimit bounds client memory; Path ORAM's stash is O(log N) w.h.p.
const stashLimit = 512

type slot struct {
	ID   int64  `json:"id"` // -1 = empty
	Data []byte `json:"data,omitempty"`
}

type bucket [Z]slot

// Client is a Path ORAM client over one blob bucket.
type Client struct {
	store  *blob.Store
	bucket string
	prefix string

	n      int   // logical block capacity
	levels int   // tree height: leaves at level `levels`
	leaves int64 // number of leaves

	pos   map[int64]int64 // block id → leaf
	stash map[int64][]byte
	rng   *rand.Rand

	// Reads and Writes count bucket-level store operations (for the
	// overhead measurement of E23).
	Reads, Writes int64
}

// New initializes an ORAM of capacity n blocks inside the given blob bucket
// (which must exist), writing the empty tree. seed drives the position
// randomness.
func New(store *blob.Store, bucketName, prefix string, n int, seed int64) (*Client, error) {
	if n < 1 {
		n = 1
	}
	levels := 0
	for (int64(1) << levels) < int64(n) {
		levels++
	}
	c := &Client{
		store:  store,
		bucket: bucketName,
		prefix: prefix,
		n:      n,
		levels: levels,
		leaves: 1 << levels,
		pos:    map[int64]int64{},
		stash:  map[int64][]byte{},
		rng:    rand.New(rand.NewSource(seed)),
	}
	// The tree is lazily materialized: a bucket object that does not exist
	// yet reads as empty, so no O(N) initialization pass is needed.
	return c, nil
}

// Levels returns the tree height (path length is Levels+1 buckets).
func (c *Client) Levels() int { return c.levels }

// Write stores data under block id.
func (c *Client) Write(id int64, data []byte) error {
	_, err := c.access(id, data, true)
	return err
}

// Read returns block id's data, or ErrNoBlock.
func (c *Client) Read(id int64) ([]byte, error) {
	return c.access(id, nil, false)
}

// access is the Path ORAM access procedure: remap the block to a fresh
// random leaf, read the old path into the stash, serve the operation, and
// write the path back greedily.
func (c *Client) access(id int64, data []byte, isWrite bool) ([]byte, error) {
	if id < 0 || id >= int64(c.n) {
		return nil, fmt.Errorf("%w: %d (capacity %d)", ErrBadBlock, id, c.n)
	}
	oldLeaf, existed := c.pos[id]
	if !existed {
		oldLeaf = c.rng.Int63n(c.leaves)
	}
	c.pos[id] = c.rng.Int63n(c.leaves)

	// Read the full path into the stash.
	path := c.pathIndices(oldLeaf)
	for _, idx := range path {
		b, err := c.readBucket(idx)
		if err != nil {
			return nil, err
		}
		for _, s := range b {
			if s.ID >= 0 {
				c.stash[s.ID] = s.Data
			}
		}
	}

	// Serve the request from the stash.
	var out []byte
	cur, inStash := c.stash[id]
	if isWrite {
		c.stash[id] = append([]byte(nil), data...)
	} else {
		if !inStash {
			// Absent block: still complete the path write-back so the
			// access pattern stays indistinguishable.
			defer delete(c.stash, id)
		}
		out = append([]byte(nil), cur...)
	}

	// Write the path back, deepest level first, greedily evicting stash
	// blocks whose assigned leaf shares the bucket's subtree.
	for lvl := c.levels; lvl >= 0; lvl-- {
		idx := path[lvl]
		var b bucket
		filled := 0
		for sid, sdata := range c.stash {
			if filled == Z {
				break
			}
			if sid == id && !isWrite && !inStash {
				continue // phantom read entry; not real data
			}
			if c.bucketOnPath(c.pos[sid], lvl) == idx {
				b[filled] = slot{ID: sid, Data: sdata}
				filled++
				delete(c.stash, sid)
			}
		}
		for i := filled; i < Z; i++ {
			b[i].ID = -1
		}
		if err := c.writeBucket(idx, b); err != nil {
			return nil, err
		}
	}
	if len(c.stash) > stashLimit {
		return nil, fmt.Errorf("%w: %d blocks", ErrOverflow, len(c.stash))
	}
	if !isWrite && !inStash {
		return nil, fmt.Errorf("%w: %d", ErrNoBlock, id)
	}
	return out, nil
}

// pathIndices returns the bucket indices from root (level 0) to the leaf.
func (c *Client) pathIndices(leaf int64) []int64 {
	out := make([]int64, c.levels+1)
	for lvl := 0; lvl <= c.levels; lvl++ {
		out[lvl] = c.bucketOnPath(leaf, lvl)
	}
	return out
}

// bucketOnPath returns the index (heap numbering) of the level-lvl bucket on
// the path to leaf.
func (c *Client) bucketOnPath(leaf int64, lvl int) int64 {
	// Heap numbering: root = 0; leaf node index = 2^levels - 1 + leaf.
	node := (int64(1) << c.levels) - 1 + leaf
	for i := c.levels; i > lvl; i-- {
		node = (node - 1) / 2
	}
	return node
}

func (c *Client) bucketKey(idx int64) string {
	return fmt.Sprintf("%s/bucket/%08d", c.prefix, idx)
}

func (c *Client) readBucket(idx int64) (bucket, error) {
	var b bucket
	raw, _, err := c.store.Get(c.bucket, c.bucketKey(idx))
	if errors.Is(err, blob.ErrNoObject) {
		// Lazily materialized: an unwritten bucket is empty. The server
		// still observed a fetch, so the access pattern is unchanged.
		c.Reads++
		for i := range b {
			b[i].ID = -1
		}
		return b, nil
	}
	if err != nil {
		return b, err
	}
	c.Reads++
	err = json.Unmarshal(raw, &b)
	return b, err
}

func (c *Client) writeBucket(idx int64, b bucket) error {
	raw, _ := json.Marshal(b)
	_, err := c.store.Put(c.bucket, c.bucketKey(idx), raw, blob.PutOptions{})
	if err == nil {
		c.Writes++
	}
	return err
}
