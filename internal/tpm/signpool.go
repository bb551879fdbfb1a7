package tpm

import (
	"crypto"
	"crypto/rsa"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SignPool is a bounded worker pool for RSA private-key operations. Engines
// with a pool attached stop computing signatures inline under their command
// mutex: Quote/Sign/CertifyKey (and the 2.0 Quote twin) snapshot the
// to-be-signed digest, submit a job, and complete the response when the
// signature lands (ExecuteDeferred / Pending). Every job is one plain
// RSASSA-PKCS1-v1_5 signature, byte-identical to what the inline path
// computes, so verifiers never learn whether a pool signed.
//
// A pool is shared across instances; per-job entropy arrives as a
// caller-forked DRBG stream so the engines' non-thread-safe key RNGs are
// never touched off-lock.

// ErrSignPoolClosed is the job error after Close: the submitting command
// still completes (with a TPM failure code), no response is lost.
var ErrSignPoolClosed = errors.New("tpm: sign pool closed")

// Sign pool defaults.
const (
	DefaultSignWorkers = 2
	defaultSignQueue   = 256
)

// SignEvent describes one completed signing job, for metrics hooks.
type SignEvent struct {
	// QueueWait is the time from submission to a worker picking the job up.
	QueueWait time.Duration
	// SignTime is the RSA private-key operation time.
	SignTime time.Duration
	// Err is the job failure, nil on success.
	Err error
}

// SignPoolConfig parameterizes NewSignPool.
type SignPoolConfig struct {
	// Workers is the number of signing goroutines. 0 means
	// DefaultSignWorkers.
	Workers int
	// QueueDepth is the job channel capacity; submissions beyond it block
	// (backpressure toward dispatch). 0 means a default of 256.
	QueueDepth int
	// Observe, when non-nil, is called after every completed job (from
	// worker goroutines; must be cheap and thread-safe).
	Observe func(SignEvent)
}

// SignRequest describes one deferred private-key operation.
type SignRequest struct {
	// Key is the signing key.
	Key *rsa.PrivateKey
	// Hash names the digest algorithm (crypto.SHA1 for 1.2, crypto.SHA256
	// for 2.0).
	Hash crypto.Hash
	// Digest is the to-be-signed digest, already snapshotted — the pool
	// never touches engine state.
	Digest []byte
	// Rng is a per-job entropy stream (RSA blinding), forked by the engine
	// from its key DRBG so seeded instances stay deterministic. May be nil.
	Rng io.Reader
}

// SignResult is the outcome of one signing job.
type SignResult struct {
	// Sig is the RSASSA-PKCS1-v1_5 signature.
	Sig []byte
	// Err is the signing failure, nil on success.
	Err error
}

// SignTicket is the caller's handle on an in-flight job.
type SignTicket struct {
	done chan struct{}
	res  SignResult
}

// Wait blocks until the job completes and returns its result.
func (tk *SignTicket) Wait() SignResult {
	<-tk.done
	return tk.res
}

// SignStats is an atomic snapshot of pool counters.
type SignStats struct {
	// Submitted/Completed/Errors count signing jobs, so Submitted-Completed
	// is the in-pool population.
	Submitted, Completed, Errors uint64
	// SingleSigns counts RSA private-key operations the workers performed.
	SingleSigns uint64
	// QueueDepth and InFlight are point-in-time gauges: jobs waiting in the
	// queue and jobs being signed right now.
	QueueDepth, InFlight int64
	// Workers is the configured worker count.
	Workers int
}

// signJob is one unit of worker work.
type signJob struct {
	req    SignRequest
	ticket *SignTicket
	at     time.Time
}

// SignPool implements the pool. Zero value is not usable; use NewSignPool.
type SignPool struct {
	cfg  SignPoolConfig
	jobs chan *signJob

	mu      sync.Mutex
	closed  bool
	senders sync.WaitGroup // in-flight Submit sends, gates close(jobs)

	wg sync.WaitGroup // workers

	submitted, completed, errs, singleSigns atomic.Uint64
	queueDepth, inFlight                    atomic.Int64
}

// NewSignPool starts the workers and returns the pool.
func NewSignPool(cfg SignPoolConfig) *SignPool {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultSignWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultSignQueue
	}
	p := &SignPool{
		cfg:  cfg,
		jobs: make(chan *signJob, cfg.QueueDepth),
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	return p
}

// Submit enqueues one signing job and returns its ticket, blocking while
// the queue is full (backpressure). Submissions after Close complete
// immediately with ErrSignPoolClosed — the deferred response still builds,
// as a TPM failure, so no guest exchange is ever dropped.
func (p *SignPool) Submit(req SignRequest) *SignTicket {
	tk := &SignTicket{done: make(chan struct{})}
	p.submitted.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.deliver(tk, SignResult{Err: ErrSignPoolClosed})
		return tk
	}
	p.senders.Add(1)
	p.mu.Unlock()
	p.queueDepth.Add(1)
	p.jobs <- &signJob{req: req, ticket: tk, at: time.Now()}
	p.senders.Done()
	return tk
}

// worker drains the job queue until Close.
func (p *SignPool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.queueDepth.Add(-1)
		p.inFlight.Add(1)
		p.run(j)
		p.inFlight.Add(-1)
	}
}

// run executes one job: a single RSA private-key operation.
func (p *SignPool) run(j *signJob) {
	wait := time.Since(j.at)
	start := time.Now()
	sig, err := rsa.SignPKCS1v15(j.req.Rng, j.req.Key, j.req.Hash, j.req.Digest)
	p.singleSigns.Add(1)
	p.deliver(j.ticket, SignResult{Sig: sig, Err: err})
	if ob := p.cfg.Observe; ob != nil {
		ob(SignEvent{QueueWait: wait, SignTime: time.Since(start), Err: err})
	}
}

// deliver completes one ticket.
func (p *SignPool) deliver(tk *SignTicket, res SignResult) {
	p.completed.Add(1)
	if res.Err != nil {
		p.errs.Add(1)
	}
	tk.res = res
	close(tk.done)
}

// Close drains the queue and stops the workers. Every job submitted before
// Close completes normally — shutdown loses no responses — and later
// submissions fail fast with ErrSignPoolClosed. Safe to call more than
// once; the pool is not reusable.
func (p *SignPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.senders.Wait()
	close(p.jobs)
	p.wg.Wait()
}

// Stats returns an atomic snapshot of the pool counters.
func (p *SignPool) Stats() SignStats {
	return SignStats{
		Submitted:   p.submitted.Load(),
		Completed:   p.completed.Load(),
		Errors:      p.errs.Load(),
		SingleSigns: p.singleSigns.Load(),
		QueueDepth:  p.queueDepth.Load(),
		InFlight:    p.inFlight.Load(),
		Workers:     p.cfg.Workers,
	}
}
