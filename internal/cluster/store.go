package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"xvtpm/internal/faults"
	"xvtpm/internal/metrics"
	"xvtpm/internal/vtpm"
)

// fencedStore is one member's view of the cluster's shared checkpoint
// store: every name is qualified with the member's prefix (so hosts never
// collide), and writes to names bound to a placement key are epoch-checked
// against the directory — the durable half of the fence. A condemned
// member's store is sealed outright, so a zombie host's late checkpoint
// writes die here no matter what its manager believes about ownership.
//
// Names not (yet) bound to a key pass through unchecked: the manager
// persists an instance at creation, and an evacuated guest at adoption,
// before the cluster has bound it, and those writes are the member's own
// private names.

// errZombieWrite is the root of every fenced-store rejection. Rejections
// are permanent by classification: retrying cannot make a stale epoch
// current again.
var errZombieWrite = errors.New("cluster: write fenced off by placement directory")

// IsFencedWrite reports whether err is a fenced-store rejection.
func IsFencedWrite(err error) bool { return errors.Is(err, errZombieWrite) }

type fencedStore struct {
	host   string
	dir    *Directory
	shared vtpm.Store

	sealed  atomic.Bool
	rejects metrics.Counter

	mu    sync.Mutex
	bound map[string]string // local blob name → placement key
}

func newFencedStore(host string, dir *Directory, shared vtpm.Store) *fencedStore {
	return &fencedStore{host: host, dir: dir, shared: shared, bound: make(map[string]string)}
}

// qualify maps a member-local blob name into the shared namespace.
func (s *fencedStore) qualify(name string) string { return s.host + "/" + name }

// bind attaches a local blob name to a placement key: writes to it are
// epoch-checked from now on.
func (s *fencedStore) bind(name, key string) {
	s.mu.Lock()
	s.bound[name] = key
	s.mu.Unlock()
}

// unbind detaches a local blob name after ownership left this member.
func (s *fencedStore) unbind(name string) {
	s.mu.Lock()
	delete(s.bound, name)
	s.mu.Unlock()
}

// seal rejects every subsequent write — the condemned-host switch.
func (s *fencedStore) seal() { s.sealed.Store(true) }

// Rejects counts writes the fence refused.
func (s *fencedStore) Rejects() uint64 { return s.rejects.Load() }

// Put implements vtpm.Store with the epoch check.
func (s *fencedStore) Put(name string, data []byte) error {
	if s.sealed.Load() {
		s.rejects.Inc()
		return faults.Permanent(fmt.Errorf("%w: host %q condemned", errZombieWrite, s.host))
	}
	s.mu.Lock()
	key, isBound := s.bound[name]
	s.mu.Unlock()
	if isBound {
		_, epoch, _, err := vtpm.UnwrapCheckpointEpoch(data)
		if err != nil {
			return faults.Permanent(fmt.Errorf("cluster: unstampable checkpoint for %q: %w", name, err))
		}
		if !s.dir.AllowWrite(key, s.host, epoch) {
			s.rejects.Inc()
			return faults.Permanent(fmt.Errorf("%w: host %q epoch %d stale for key %q", errZombieWrite, s.host, epoch, key))
		}
	}
	return s.shared.Put(s.qualify(name), data)
}

// Get implements vtpm.Store. Reads stay open even on a sealed store: a
// zombie reading its own stale state is harmless, and forensics wants it.
func (s *fencedStore) Get(name string) ([]byte, error) {
	return s.shared.Get(s.qualify(name))
}

// Delete implements vtpm.Store. Sealed members may not delete either — a
// zombie must not destroy the committed state a survivor will revive from.
func (s *fencedStore) Delete(name string) error {
	if s.sealed.Load() {
		s.rejects.Inc()
		return faults.Permanent(fmt.Errorf("%w: host %q condemned", errZombieWrite, s.host))
	}
	return s.shared.Delete(s.qualify(name))
}

// List implements vtpm.Store over the member's own prefix.
func (s *fencedStore) List() ([]string, error) {
	all, err := s.shared.List()
	if err != nil {
		return nil, err
	}
	prefix := s.host + "/"
	var out []string
	for _, n := range all {
		if strings.HasPrefix(n, prefix) {
			out = append(out, strings.TrimPrefix(n, prefix))
		}
	}
	return out, nil
}
