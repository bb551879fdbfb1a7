// Package vtpm implements the Xen vTPM subsystem the paper improves: a
// manager running in the privileged domain that creates and persists
// per-guest software TPM instances, and a split front/backend driver pair
// that carries guest TPM commands over a grant-mapped shared ring.
//
// The architecture follows the deployed Xen vTPM design (Berger et al.,
// USENIX Security 2006, as shipped with Xen 3.x): one full TPM 1.2 engine
// per guest, a manager owning instance state and its persistence, the
// hardware TPM anchoring the storage hierarchy, and XenStore carrying the
// device handshake.
//
// Access control is deliberately a seam, not a baked-in policy: every
// guest-originated command and every state movement passes through a Guard.
// The baseline Guard (internal/core.BaselineGuard) reproduces stock Xen
// behaviour — instance-to-domain-ID mapping only, plaintext state. The
// improved Guard (internal/core.ImprovedGuard) is the paper's contribution.
package vtpm

import (
	"errors"
	"sort"
	"sync"
)

// ErrNoState is returned when a named state blob does not exist.
var ErrNoState = errors.New("vtpm: no such state blob")

// Store is the manager's persistence backend — the stand-in for
// /var/lib/xen/vtpm on a real dom0. The attack model gives a dom0 attacker
// read access to it, which is why the improved design never writes
// plaintext into it.
type Store interface {
	// Put writes (or replaces) a named blob.
	Put(name string, data []byte) error
	// Get returns a copy of a named blob.
	Get(name string) ([]byte, error)
	// Delete removes a named blob; deleting a missing blob is an error.
	Delete(name string) error
	// List returns all blob names, sorted.
	List() ([]string, error)
}

// MemStore is an in-memory Store.
type MemStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

// NewMemStore creates an empty store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

// Put implements Store. Rewriting a name reuses its array when the new blob
// fits: the store never hands its arrays out (Get copies), so an eager
// checkpoint loop rewrites one blob in place instead of allocating a fresh
// one per write.
func (s *MemStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.blobs[name]
	if cap(old) < len(data) {
		old = nil
	}
	s.blobs[name] = append(old[:0], data...)
	return nil
}

// Get implements Store.
func (s *MemStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[name]
	if !ok {
		return nil, ErrNoState
	}
	return append([]byte(nil), b...), nil
}

// Delete implements Store.
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[name]; !ok {
		return ErrNoState
	}
	delete(s.blobs, name)
	return nil
}

// List implements Store.
func (s *MemStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.blobs))
	for n := range s.blobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
