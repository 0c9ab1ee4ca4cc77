package coord

import "errors"

// TryAcquire attempts to take the ephemeral lock at path for the given
// session, storing data (typically the owner's identity) in the lock node.
// It returns true if the lock was acquired, false if another live session
// holds it. The lock is released when the session closes, or via Release.
func (s *Store) TryAcquire(path string, data []byte, owner SessionID) (bool, error) {
	err := s.Create(path, data, Ephemeral, owner)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrNodeExists):
		return false, nil
	default:
		return false, err
	}
}

// Release drops the lock at path if held. It is a no-op if the node is gone.
func (s *Store) Release(path string) {
	_ = s.Delete(path, AnyVersion)
}

// LockHolder returns the data stored in the lock node at path, and whether
// the lock is currently held.
func (s *Store) LockHolder(path string) ([]byte, bool) {
	data, _, err := s.Get(path)
	if err != nil {
		return nil, false
	}
	return data, true
}
