package vtpm

import (
	"sync"
	"sync/atomic"

	"xvtpm/internal/xen"
)

// LoadSession is a synthetic open-loop traffic source admitted at the
// manager layer: it speaks the same dispatch path as a real guest — the
// guard-issued channel codec in, Manager.Dispatch with the bound domain's
// claimed identity, the codec back out — but without a ring, frontend or
// backend in between. The load harness multiplexes large simulated fleets
// onto a pool of these (one tpm.Client per session via the Transport it
// implements), so offered-load experiments measure the admission + engine
// path itself rather than transport scheduling.
//
// Contract: in improved mode the channel's anti-replay window is per
// instance and strictly monotonic, so a session must be its instance's
// *only* client — opening one on an instance whose guest frontend is still
// issuing commands makes the two sequence streams fence each other out
// (ErrReplay). Open sessions on dedicated load instances (see
// xvtpm.Host.OpenLoadSlot) or on guests known to be quiescent.
type LoadSession struct {
	m      *Manager
	id     InstanceID
	dom    xen.DomID
	launch xen.LaunchDigest
	codec  GuestCodec

	mu     sync.Mutex // serializes the codec's sequence stream
	closed bool
}

// OpenLoadSession admits a synthetic open-loop session for a bound
// instance. The session's codec comes from the instance's guard, so
// admission control (binding checks, policy, rate limits, channel
// authentication) applies to every command exactly as it does for guest
// traffic.
func (m *Manager) OpenLoadSession(id InstanceID) (*LoadSession, error) {
	info, err := m.InstanceInfo(id)
	if err != nil {
		return nil, err
	}
	if info.BoundDom == xen.Dom0 {
		return nil, ErrUnbound
	}
	codec, err := m.EncoderFor(id)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&m.loadSessions, 1)
	return &LoadSession{m: m, id: id, dom: info.BoundDom, launch: info.BoundLaunch, codec: codec}, nil
}

// Instance names the session's backing instance.
func (s *LoadSession) Instance() InstanceID { return s.id }

// Domain names the bound domain whose identity the session claims.
func (s *LoadSession) Domain() xen.DomID { return s.dom }

// Transmit implements tpm.Transport: one encoded round trip through the
// manager's dispatch path. Calls serialize on the session — the channel
// codec is a single ordered sequence stream — which is exactly the
// one-lane semantics a load slot wants (lateness behind a slow dispatch
// folds into the open-loop latency of queued arrivals).
func (s *LoadSession) Transmit(cmd []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrBadChannel
	}
	payload, seq, err := s.codec.EncodeRequest(nil, cmd)
	if err != nil {
		return nil, err
	}
	resp, err := s.m.Dispatch(s.dom, s.launch, payload)
	if err != nil {
		return nil, err
	}
	atomic.AddUint64(&s.m.loadCommands, 1)
	return s.codec.DecodeResponse(nil, resp, seq)
}

// Close retires the session. The instance stays bound; callers own its
// lifecycle.
func (s *LoadSession) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		atomic.AddInt64(&s.m.loadSessions, -1)
	}
}

// LoadSessionStats reports the manager's synthetic-session activity:
// currently open sessions and total commands dispatched through them.
func (m *Manager) LoadSessionStats() (open int64, commands uint64) {
	return atomic.LoadInt64(&m.loadSessions), atomic.LoadUint64(&m.loadCommands)
}
