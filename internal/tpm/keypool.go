package tpm

import (
	"crypto/rand"
	"crypto/rsa"
	"io"
	"sync"
	"sync/atomic"
)

// KeyPool pre-generates RSA keys in the background so instance creation and
// key-creation ordinals (TakeOwnership's SRK, MakeIdentity's AIK,
// CreateWrapKey) stop stalling on multi-millisecond rsa.GenerateKey calls.
// Engines with a pool attached draw from it first and fall back to their own
// key DRBG when the buffer is empty or the modulus size differs, so a pool
// is an optimization, never a correctness dependency.
//
// Determinism: with a nil Seed the pool draws from crypto/rand. With a Seed
// the generator stream is deterministic — the SEQUENCE of keys produced is
// reproducible — but which concurrent consumer receives which key is not,
// so seeded pools are sequence-deterministic, not assignment-deterministic.
// Tests that need exact per-instance key bytes must construct engines
// without a pool, as before.

// KeyPoolConfig parameterizes NewKeyPool.
type KeyPoolConfig struct {
	// Bits is the modulus size of pooled keys; Get requests for any other
	// size miss. 0 means DefaultRSABits.
	Bits int
	// Size is the number of keys buffered ahead. 0 means 8.
	Size int
	// Fillers is the number of background generator goroutines. 0 means 1;
	// a non-nil Seed forces 1 (concurrent fillers would interleave reads of
	// the deterministic stream).
	Fillers int
	// Seed, when non-nil, derives a deterministic generator stream instead
	// of crypto/rand.
	Seed []byte
}

// KeyPoolStats is an atomic snapshot of pool counters.
type KeyPoolStats struct {
	// Generated counts keys produced by the fillers.
	Generated uint64
	// Hits and Misses count Get outcomes; a miss means the caller paid for
	// inline generation.
	Hits, Misses uint64
	// Buffered is the point-in-time number of keys ready to serve.
	Buffered int
}

// KeyPool implements the pool. Use NewKeyPool; the zero value is not usable,
// but a nil *KeyPool is valid and always misses.
type KeyPool struct {
	bits int
	ch   chan *rsa.PrivateKey
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	generated, hits, misses atomic.Uint64
}

// NewKeyPool starts the filler goroutines and returns the pool.
func NewKeyPool(cfg KeyPoolConfig) *KeyPool {
	if cfg.Bits <= 0 {
		cfg.Bits = DefaultRSABits
	}
	if cfg.Size <= 0 {
		cfg.Size = 8
	}
	if cfg.Fillers <= 0 || cfg.Seed != nil {
		cfg.Fillers = 1
	}
	p := &KeyPool{
		bits: cfg.Bits,
		ch:   make(chan *rsa.PrivateKey, cfg.Size),
		quit: make(chan struct{}),
	}
	var rng io.Reader = rand.Reader
	if cfg.Seed != nil {
		rng = keygenReader{newDRBG(append(append([]byte(nil), cfg.Seed...), []byte("|keypool")...))}
	}
	p.wg.Add(cfg.Fillers)
	for i := 0; i < cfg.Fillers; i++ {
		go p.fill(rng)
	}
	return p
}

// fill generates keys until Close.
func (p *KeyPool) fill(rng io.Reader) {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		default:
		}
		k, err := rsa.GenerateKey(rng, p.bits)
		if err != nil {
			return
		}
		p.generated.Add(1)
		select {
		case p.ch <- k:
		case <-p.quit:
			return
		}
	}
}

// Get returns a pooled key of the requested size without blocking. A miss
// (empty buffer, size mismatch, nil pool) returns ok == false and the caller
// generates inline.
func (p *KeyPool) Get(bits int) (*rsa.PrivateKey, bool) {
	if p == nil || bits != p.bits {
		return nil, false
	}
	select {
	case k := <-p.ch:
		p.hits.Add(1)
		return k, true
	default:
		p.misses.Add(1)
		return nil, false
	}
}

// Close stops the fillers. Buffered keys are discarded; Get after Close
// drains whatever remains and then misses forever.
func (p *KeyPool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// Stats returns an atomic snapshot of the pool counters.
func (p *KeyPool) Stats() KeyPoolStats {
	if p == nil {
		return KeyPoolStats{}
	}
	return KeyPoolStats{
		Generated: p.generated.Load(),
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Buffered:  len(p.ch),
	}
}
