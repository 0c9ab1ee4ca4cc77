// Package coord implements the ZooKeeper-style coordination service that the
// messaging layer (Figure 1 of the paper) depends on for configuration
// management, topic ownership and ledger metadata.
//
// It provides a hierarchical namespace of versioned nodes ("znodes") with
// persistent and ephemeral creation modes and session-scoped liveness: when a
// session closes, every ephemeral node it created is removed. That is what
// the messaging layer uses — ephemeral locks, compare-and-set writes and
// child listings. The store is linearizable by construction (a single mutex
// orders all operations).
//
// A node's data lives in a buffer the node owns: Set overwrites it in place
// (reusing its capacity), and Get and LockHolder always hand out copies, so no
// caller ever holds a view that a later Set could change.
package coord

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/simclock"
)

// Errors returned by Store operations.
var (
	ErrNoNode      = errors.New("coord: node does not exist")
	ErrNodeExists  = errors.New("coord: node already exists")
	ErrBadVersion  = errors.New("coord: version mismatch")
	ErrNotEmpty    = errors.New("coord: node has children")
	ErrNoSession   = errors.New("coord: no such open session")
	ErrBadPath     = errors.New("coord: malformed path")
	ErrEphChildren = errors.New("coord: ephemeral nodes cannot have children")
)

// Mode selects the lifetime of a created node.
type Mode int

const (
	// Persistent nodes live until explicitly deleted.
	Persistent Mode = iota
	// Ephemeral nodes are deleted automatically when their creating
	// session closes.
	Ephemeral
)

// Stat carries a node's metadata.
type Stat struct {
	Version        int64 // bumped on every Set
	CreatedAt      time.Time
	ModifiedAt     time.Time
	EphemeralOwner SessionID // zero for persistent nodes
	NumChildren    int
}

// SessionID identifies a client session. The zero value means "no session".
type SessionID int64

// AnyVersion disables the compare-and-set check in Set and Delete.
const AnyVersion int64 = -1

type node struct {
	data     []byte
	stat     Stat
	children map[string]*node // nil until the first child
}

// Store is an in-process coordination service instance.
type Store struct {
	clock simclock.Clock

	mu       sync.Mutex
	root     *node
	sessions map[SessionID]map[string]struct{} // open session → paths of its ephemerals
	nextSess SessionID
}

// NewStore creates an empty Store on the given clock.
func NewStore(clock simclock.Clock) *Store {
	return &Store{
		clock:    clock,
		root:     &node{},
		sessions: map[SessionID]map[string]struct{}{},
	}
}

// NewSession opens a session. It lasts until CloseSession.
func (s *Store) NewSession() SessionID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSess++
	s.sessions[s.nextSess] = map[string]struct{}{}
	return s.nextSess
}

// CloseSession ends a session, deleting its ephemeral nodes.
func (s *Store) CloseSession(id SessionID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ephemerals, ok := s.sessions[id]
	if !ok {
		return
	}
	paths := make([]string, 0, len(ephemerals))
	for p := range ephemerals {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		_ = s.deleteLocked(p, AnyVersion, false)
	}
	delete(s.sessions, id)
}

// Create makes a new node at path with the given data. Parent nodes must
// already exist. For Ephemeral mode, owner must be a live session.
func (s *Store) Create(path string, data []byte, mode Mode, owner SessionID) error {
	if !validPath(path) {
		return errBadPath(path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var ephemerals map[string]struct{}
	if mode == Ephemeral {
		var ok bool
		if ephemerals, ok = s.sessions[owner]; !ok {
			return ErrNoSession
		}
	}

	dir, name := splitLast(path)
	parent, missing := s.descendLocked(dir)
	if parent == nil {
		return fmt.Errorf("%w: missing parent %q in %q", ErrNoNode, missing, path)
	}
	if parent != s.root && parent.stat.EphemeralOwner != 0 {
		return ErrEphChildren
	}
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("%w: %q", ErrNodeExists, path)
	}
	n := s.addChildLocked(parent, name, data, s.clock.Now())
	if mode == Ephemeral {
		n.stat.EphemeralOwner = owner
		ephemerals[path] = struct{}{}
	}
	return nil
}

// addChildLocked links a new persistent node holding a copy of data under
// parent as name and stamps it with now. The caller has checked that name is
// free and that parent may have children.
func (s *Store) addChildLocked(parent *node, name string, data []byte, now time.Time) *node {
	n := &node{
		data: append([]byte(nil), data...),
		stat: Stat{CreatedAt: now, ModifiedAt: now},
	}
	if parent.children == nil {
		parent.children = map[string]*node{} // most nodes are leaves: made on the first child
	}
	parent.children[name] = n
	parent.stat.NumChildren = len(parent.children)
	return n
}

// Get returns a node's data and metadata.
func (s *Store) Get(path string) ([]byte, Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookupLocked(path)
	if err != nil {
		return nil, Stat{}, err
	}
	st := n.stat
	st.NumChildren = len(n.children)
	return append([]byte(nil), n.data...), st, nil
}

// Exists reports whether a node exists at path.
func (s *Store) Exists(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.lookupLocked(path)
	return err == nil
}

// Set overwrites a node's data if version matches (or is AnyVersion).
func (s *Store) Set(path string, data []byte, version int64) (Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookupLocked(path)
	if err != nil {
		return Stat{}, err
	}
	if version != AnyVersion && version != n.stat.Version {
		return Stat{}, fmt.Errorf("%w: have %d, want %d", ErrBadVersion, n.stat.Version, version)
	}
	n.data = append(n.data[:0], data...) // in place: readers only ever hold copies
	n.stat.Version++
	n.stat.ModifiedAt = s.clock.Now()
	return n.stat, nil
}

// Delete removes a node if it has no children and version matches.
func (s *Store) Delete(path string, version int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteLocked(path, version, true)
}

// Children returns the sorted names of a node's children.
func (s *Store) Children(path string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookupLocked(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// EnsurePath creates every missing component of path as a persistent node
// with empty data (a convenience ZooKeeper clients typically implement
// themselves). It is one walk under one lock acquisition, and allocates
// nothing when the whole path already exists.
func (s *Store) EnsurePath(path string) error {
	if !validPath(path) {
		return errBadPath(path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	n := s.root
	for i := 0; i < len(path); {
		end := partEnd(path, i)
		child, ok := n.children[path[i+1:end]]
		if !ok {
			if n != s.root && n.stat.EphemeralOwner != 0 {
				return ErrEphChildren
			}
			child = s.addChildLocked(n, path[i+1:end], nil, now)
		}
		n, i = child, end
	}
	return nil
}

// --- internals ---

// validPath reports whether path is a slash followed by one or more
// non-empty components separated by single slashes: "/a" and "/a/b" are
// paths; "", "/", "a", "//", "/a/" and "/a//b" are not.
func validPath(path string) bool {
	return len(path) > 1 && path[0] == '/' && path[len(path)-1] != '/' && !strings.Contains(path, "//")
}

func errBadPath(path string) error { return fmt.Errorf("%w: %q", ErrBadPath, path) }

// partEnd returns where the component opened by the slash at path[i] ends.
func partEnd(path string, i int) int {
	if j := strings.IndexByte(path[i+1:], '/'); j >= 0 {
		return i + 1 + j
	}
	return len(path)
}

// splitLast cuts a valid path into its parent's path ("" for the root) and
// its final component.
func splitLast(path string) (dir, name string) {
	i := strings.LastIndexByte(path, '/')
	return path[:i], path[i+1:]
}

// descendLocked walks dir — "" for the root, otherwise a valid path — by
// index, without splitting it. It returns the node there, or nil and the
// first component that does not exist.
func (s *Store) descendLocked(dir string) (n *node, missing string) {
	n = s.root
	for i := 0; i < len(dir); {
		end := partEnd(dir, i)
		child, ok := n.children[dir[i+1:end]]
		if !ok {
			return nil, dir[i+1 : end]
		}
		n, i = child, end
	}
	return n, ""
}

func (s *Store) lookupLocked(path string) (*node, error) {
	if !validPath(path) {
		return nil, errBadPath(path)
	}
	n, _ := s.descendLocked(path)
	if n == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	return n, nil
}

func (s *Store) deleteLocked(path string, version int64, checkChildren bool) error {
	if !validPath(path) {
		return errBadPath(path)
	}
	dir, name := splitLast(path)
	parent, _ := s.descendLocked(dir)
	if parent == nil {
		return fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	if checkChildren && len(n.children) > 0 {
		return fmt.Errorf("%w: %q", ErrNotEmpty, path)
	}
	if version != AnyVersion && version != n.stat.Version {
		return fmt.Errorf("%w: have %d, want %d", ErrBadVersion, n.stat.Version, version)
	}
	delete(parent.children, name)
	parent.stat.NumChildren = len(parent.children)
	if n.stat.EphemeralOwner != 0 {
		delete(s.sessions[n.stat.EphemeralOwner], path)
	}
	return nil
}
