package coord

import (
	"errors"
	"testing"

	"repro/internal/simclock"
)

func newStore() *Store { return NewStore(simclock.Real{}) }

func TestCreateGetSetDelete(t *testing.T) {
	s := newStore()
	if err := s.Create("/a", []byte("one"), Persistent, 0); err != nil {
		t.Fatal(err)
	}
	data, st, err := s.Get("/a")
	if err != nil || string(data) != "one" || st.Version != 0 {
		t.Fatalf("Get = %q v%d err %v", data, st.Version, err)
	}
	if _, err := s.Set("/a", []byte("two"), 0); err != nil {
		t.Fatal(err)
	}
	data, st, _ = s.Get("/a")
	if string(data) != "two" || st.Version != 1 {
		t.Fatalf("after Set: %q v%d", data, st.Version)
	}
	if err := s.Delete("/a", 1); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/a") {
		t.Fatal("node survived Delete")
	}
}

func TestCreateRequiresParent(t *testing.T) {
	s := newStore()
	if err := s.Create("/a/b", nil, Persistent, 0); !errors.Is(err, ErrNoNode) {
		t.Fatalf("err = %v, want ErrNoNode", err)
	}
	if err := s.EnsurePath("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if !s.Exists("/a/b/c") {
		t.Fatal("EnsurePath did not create the chain")
	}
	// EnsurePath must be idempotent.
	if err := s.EnsurePath("/a/b/c"); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	s := newStore()
	must(t, s.Create("/a", nil, Persistent, 0))
	if err := s.Create("/a", nil, Persistent, 0); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("err = %v, want ErrNodeExists", err)
	}
}

func TestBadPaths(t *testing.T) {
	s := newStore()
	for _, p := range []string{"", "/", "a", "/a//b", "//"} {
		if err := s.Create(p, nil, Persistent, 0); !errors.Is(err, ErrBadPath) {
			t.Fatalf("Create(%q) err = %v, want ErrBadPath", p, err)
		}
	}
}

func TestVersionedSetAndDelete(t *testing.T) {
	s := newStore()
	must(t, s.Create("/v", []byte("x"), Persistent, 0))
	if _, err := s.Set("/v", []byte("y"), 99); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale Set err = %v", err)
	}
	if _, err := s.Set("/v", []byte("y"), AnyVersion); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/v", 0); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("stale Delete err = %v", err)
	}
	if err := s.Delete("/v", 1); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNonEmpty(t *testing.T) {
	s := newStore()
	must(t, s.EnsurePath("/p/c"))
	if err := s.Delete("/p", AnyVersion); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v, want ErrNotEmpty", err)
	}
}

func TestChildrenSorted(t *testing.T) {
	s := newStore()
	must(t, s.Create("/p", nil, Persistent, 0))
	for _, c := range []string{"zeta", "alpha", "mid"} {
		must(t, s.Create("/p/"+c, nil, Persistent, 0))
	}
	kids, err := s.Children("/p")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if kids[i] != want[i] {
			t.Fatalf("Children = %v, want %v", kids, want)
		}
	}
}

func TestEphemeralDeletedOnClose(t *testing.T) {
	s := newStore()
	sess := s.NewSession()
	must(t, s.Create("/e", []byte("owner"), Ephemeral, sess))
	if !s.Exists("/e") {
		t.Fatal("ephemeral missing")
	}
	s.CloseSession(sess)
	if s.Exists("/e") {
		t.Fatal("ephemeral survived session close")
	}
}

func TestEphemeralRequiresSession(t *testing.T) {
	s := newStore()
	if err := s.Create("/e", nil, Ephemeral, 42); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v, want ErrNoSession", err)
	}
}

func TestEphemeralNoChildren(t *testing.T) {
	s := newStore()
	sess := s.NewSession()
	must(t, s.Create("/e", nil, Ephemeral, sess))
	if err := s.Create("/e/kid", nil, Persistent, 0); !errors.Is(err, ErrEphChildren) {
		t.Fatalf("err = %v, want ErrEphChildren", err)
	}
}

func TestTryAcquireRelease(t *testing.T) {
	s := newStore()
	a, b := s.NewSession(), s.NewSession()
	ok, err := s.TryAcquire("/lock", []byte("a"), a)
	if err != nil || !ok {
		t.Fatalf("first acquire: ok=%v err=%v", ok, err)
	}
	ok, err = s.TryAcquire("/lock", []byte("b"), b)
	if err != nil || ok {
		t.Fatalf("second acquire should fail: ok=%v err=%v", ok, err)
	}
	holder, held := s.LockHolder("/lock")
	if !held || string(holder) != "a" {
		t.Fatalf("holder = %q %v", holder, held)
	}
	s.CloseSession(a)
	ok, _ = s.TryAcquire("/lock", []byte("b"), b)
	if !ok {
		t.Fatal("lock not released by session close")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := newStore()
	must(t, s.Create("/c", []byte("abc"), Persistent, 0))
	data, _, _ := s.Get("/c")
	data[0] = 'X'
	data2, _, _ := s.Get("/c")
	if string(data2) != "abc" {
		t.Fatal("Get exposed internal buffer")
	}
}

// TestSetDoesNotReachEarlierReads: Set overwrites the node's buffer in
// place, so what Get handed out before must be a copy a later, shorter or
// longer value cannot change.
func TestSetDoesNotReachEarlierReads(t *testing.T) {
	s := newStore()
	must(t, s.Create("/c", []byte("abcdef"), Persistent, 0))
	first, _, _ := s.Get("/c")
	_, err := s.Set("/c", []byte("xy"), AnyVersion) // shorter: reuses the buffer
	must(t, err)
	second, _, _ := s.Get("/c")
	_, err = s.Set("/c", []byte("0123456789abcdef"), AnyVersion) // longer: may regrow it
	must(t, err)
	third, st, _ := s.Get("/c")
	holder, held := s.LockHolder("/c")
	_, err = s.Set("/c", []byte("zz"), AnyVersion)
	must(t, err)
	if string(first) != "abcdef" || string(second) != "xy" || string(third) != "0123456789abcdef" || !held || string(holder) != "0123456789abcdef" {
		t.Fatalf("earlier reads changed under later Sets: %q %q %q %q", first, second, third, holder)
	}
	if st.Version != 2 {
		t.Fatalf("version after two Sets = %d, want 2", st.Version)
	}
}

// TestPathVerdictsAgree: every operation that takes a path gives the same
// verdict on it — a malformed path is ErrBadPath everywhere (even when a
// prefix of it is missing), a well-formed one never is, and a well-formed
// path with nothing there is ErrNoNode.
func TestPathVerdictsAgree(t *testing.T) {
	cases := []struct {
		path string
		bad  bool
	}{
		{"", true}, {"/", true}, {"a", true}, {"a/b", true}, {"//", true}, {"///", true},
		{"/a/", true}, {"/a//b", true}, {"//a", true}, {"/a/b/", true}, {"/missing//b", true}, {"/missing/", true},
		{"/a", false}, {"/a/b", false}, {"/missing", false}, {"/missing/b/c", false},
		{"/a b", false}, {"/ù/é", false}, {"/a/.", false}, {"/a/b/c/d/e/f", false},
	}
	for _, tc := range cases {
		s := newStore()
		must(t, s.EnsurePath("/a/b"))
		if tc.bad {
			_, _, getErr := s.Get(tc.path)
			_, setErr := s.Set(tc.path, nil, AnyVersion)
			_, chErr := s.Children(tc.path)
			for op, err := range map[string]error{
				"Create": s.Create(tc.path, nil, Persistent, 0), "Get": getErr, "Set": setErr,
				"Delete": s.Delete(tc.path, AnyVersion), "EnsurePath": s.EnsurePath(tc.path),
				"Children": chErr,
			} {
				if !errors.Is(err, ErrBadPath) {
					t.Errorf("%s(%q) = %v, want ErrBadPath", op, tc.path, err)
				}
			}
			if s.Exists(tc.path) {
				t.Errorf("Exists(%q) = true for a malformed path", tc.path)
			}
			continue
		}
		if existed := s.Exists(tc.path); !existed {
			_, _, getErr := s.Get(tc.path)
			_, setErr := s.Set(tc.path, nil, AnyVersion)
			for op, err := range map[string]error{"Get": getErr, "Set": setErr, "Delete": s.Delete(tc.path, AnyVersion)} {
				if !errors.Is(err, ErrNoNode) {
					t.Errorf("%s(%q) on a missing node = %v, want ErrNoNode", op, tc.path, err)
				}
			}
		}
		if err := s.Create(tc.path, nil, Persistent, 0); errors.Is(err, ErrBadPath) {
			t.Errorf("Create(%q) = %v for a well-formed path", tc.path, err)
		}
		must(t, s.EnsurePath(tc.path))
		must(t, s.EnsurePath(tc.path)) // idempotent
		if !s.Exists(tc.path) {
			t.Errorf("Exists(%q) = false after EnsurePath", tc.path)
		}
		if _, err := s.Set(tc.path, []byte("v"), AnyVersion); err != nil {
			t.Errorf("Set(%q) after EnsurePath = %v", tc.path, err)
		}
		if data, _, err := s.Get(tc.path); err != nil || string(data) != "v" {
			t.Errorf("Get(%q) after Set = %q, %v", tc.path, data, err)
		}
	}
}

// TestEnsurePathCreatesOnlyWhatIsMissing: existing components keep their
// data and version, each missing one is added to its parent once, and an
// ephemeral node still cannot be given children.
func TestEnsurePathCreatesOnlyWhatIsMissing(t *testing.T) {
	s := newStore()
	must(t, s.Create("/a", []byte("keep"), Persistent, 0))
	_, err := s.Set("/a", []byte("kept"), AnyVersion)
	must(t, err)
	must(t, s.EnsurePath("/a/b/c"))
	if data, st, _ := s.Get("/a"); string(data) != "kept" || st.Version != 1 || st.NumChildren != 1 {
		t.Fatalf("/a after EnsurePath = %q %+v", data, st)
	}
	if names, _ := s.Children("/a/b"); len(names) != 1 || names[0] != "c" {
		t.Fatalf("children of /a/b = %v", names)
	}
	sess := s.NewSession()
	must(t, s.Create("/a/eph", nil, Ephemeral, sess))
	if err := s.EnsurePath("/a/eph/x/y"); !errors.Is(err, ErrEphChildren) {
		t.Fatalf("EnsurePath under an ephemeral node = %v, want ErrEphChildren", err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
