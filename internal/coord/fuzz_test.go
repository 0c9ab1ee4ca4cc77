package coord

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simclock"
)

// FuzzPathHandling throws arbitrary paths at the store: no input may panic,
// any path that Create accepts must round-trip through Get, Set, Exists,
// EnsurePath and Delete, and any path Create calls malformed must be
// malformed to EnsurePath too.
func FuzzPathHandling(f *testing.F) {
	for _, seed := range []string{"/a", "/a/b", "//", "/", "", "a", "/a//b", "/a b", "/ù", "/a/b/c/d/e"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, path string) {
		s := NewStore(simclock.Real{})
		// Parents first, best-effort.
		if strings.HasPrefix(path, "/") {
			parts := strings.Split(strings.Trim(path, "/"), "/")
			for i := 1; i < len(parts); i++ {
				_ = s.Create("/"+strings.Join(parts[:i], "/"), nil, Persistent, 0)
			}
		}
		if err := s.Create(path, []byte("x"), Persistent, 0); err != nil {
			// Rejected inputs must not panic, and the two ways of creating a
			// node must agree on what a path is.
			if bad := errors.Is(err, ErrBadPath); bad != errors.Is(s.EnsurePath(path), ErrBadPath) {
				t.Fatalf("Create and EnsurePath disagree on whether %q is malformed (Create: %v)", path, err)
			}
			return
		}
		data, _, err := s.Get(path)
		if err != nil || string(data) != "x" {
			t.Fatalf("accepted path %q does not round-trip: %q %v", path, data, err)
		}
		if !s.Exists(path) {
			t.Fatalf("accepted path %q does not exist", path)
		}
		if err := s.EnsurePath(path); err != nil {
			t.Fatalf("EnsurePath of existing %q: %v", path, err)
		}
		if st, err := s.Set(path, []byte("longer value"), AnyVersion); err != nil || st.Version != 1 {
			t.Fatalf("Set on accepted path %q: %+v %v", path, st, err)
		}
		if data, _, err = s.Get(path); err != nil || string(data) != "longer value" {
			t.Fatalf("accepted path %q does not round-trip a Set: %q %v", path, data, err)
		}
		if err := s.Delete(path, AnyVersion); err != nil {
			t.Fatalf("accepted path %q cannot be deleted: %v", path, err)
		}
	})
}
