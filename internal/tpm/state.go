package tpm

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"sync"
)

// Config parameterizes a TPM instance.
type Config struct {
	// RSABits is the modulus size for the EK, SRK and generated keys.
	// Defaults to 1024, the common TPM 1.2 deployment size. Tests use 512
	// for speed; absolute crypto timing is not a reproduction claim.
	RSABits int
	// Seed, when non-nil, makes the instance fully deterministic. When nil
	// the DRBG is seeded from crypto/rand.
	Seed []byte
	// Signer, when non-nil, offloads RSA private-key operations (Quote,
	// Sign, CertifyKey and the 2.0 Quote twin) to a shared worker pool: the
	// engine snapshots the to-be-signed digest under its mutex, enqueues a
	// job, and completes the response outside the lock (ExecuteDeferred).
	// Nil keeps the seed behavior: signatures computed inline.
	Signer *SignPool
	// KeyPool, when non-nil, supplies pre-generated RSA keys for the EK and
	// the key-creation ordinals, taking key generation off the create path
	// (measured in experiment E3). Misses fall back to the instance's own
	// key DRBG.
	KeyPool *KeyPool
}

// DefaultRSABits is the modulus size used when Config.RSABits is zero.
const DefaultRSABits = 1024

// loadedKey is a key slot entry.
type loadedKey struct {
	priv      *rsa.PrivateKey
	usage     uint16
	scheme    uint16
	usageAuth [AuthSize]byte
	parent    uint32
}

// nvArea is one defined NV index.
type nvArea struct {
	perms uint32
	size  uint32
	auth  [AuthSize]byte
	data  []byte
}

// sessionType discriminates OIAP from OSAP sessions.
type sessionType byte

const (
	sessOIAP sessionType = iota
	sessOSAP
)

// session is a live authorization session.
type session struct {
	typ          sessionType
	nonceEven    [NonceSize]byte
	sharedSecret []byte // OSAP only
	entityType   uint16
	entityValue  uint32
}

// TPM is one software TPM 1.2 instance. All commands enter through Execute;
// the mutex serializes them, as the single-threaded hardware does.
type TPM struct {
	mu      sync.Mutex
	rng     *drbg
	keyRng  *drbg // key-generation entropy, forked from the seed
	rsaBits int
	signer  *SignPool // nil: signatures computed inline under mu
	keyPool *KeyPool  // nil: keys generated inline from keyRng

	started    bool
	testResult uint32

	pcrs [NumPCRs][DigestSize]byte

	ek *rsa.PrivateKey

	owned     bool
	ownerAuth [AuthSize]byte
	srk       *loadedKey
	tpmProof  [AuthSize]byte

	keys        map[uint32]*loadedKey
	nextHandle  uint32
	sessions    map[uint32]*session
	nextSession uint32
	nv          map[uint32]*nvArea

	// Monotonic counters: live counters, the next handle, and the floor —
	// the largest value any counter has ever held, which new counters start
	// above (rollback defense).
	counters      map[uint32]*counter
	nextCounterID uint32
	counterFloor  uint32

	// Context management: liveness set of saved-but-not-reloaded contexts
	// and the monotonic counter naming them.
	liveContexts   map[uint64]bool
	contextCounter uint64

	// Dictionary-attack defense: consecutive authorization failures and the
	// lockout latch. Real TPM 1.2 chips use escalating time penalties; this
	// engine latches after lockoutThreshold failures until an owner-
	// authorized TPM_ResetLockValue, which preserves the property under test
	// (an attacker cannot grind auth values through the command interface).
	authFailCount uint32
	lockedOut     bool

	// commandCount counts executed commands, for GetCapability and metrics.
	commandCount uint64

	// Per-command scratch, reused across Execute calls (all serialized by
	// mu): the command context and its parameter reader, the handlers'
	// response-parameter writer, a hash-input buffer, and a DRBG output
	// buffer. Only the final response buffer is allocated per command.
	execCtx cmdContext
	paramRd Reader
	respW   Writer
	hashBuf []byte
	randBuf []byte
}

// lockoutThreshold is the consecutive-auth-failure count that latches the
// dictionary-attack lockout.
const lockoutThreshold = 5

// New creates a powered-on but not-yet-started TPM. The endorsement key is
// generated (or taken from the key pool) here, mirroring manufacture-time
// EK provisioning.
func New(cfg Config) (*TPM, error) {
	bits := cfg.RSABits
	if bits == 0 {
		bits = DefaultRSABits
	}
	seed := cfg.Seed
	if seed == nil {
		seed = make([]byte, 32)
		if _, err := rand.Read(seed); err != nil {
			return nil, fmt.Errorf("tpm: seeding: %w", err)
		}
	}
	// Key generation draws from a forked DRBG, so however many bytes
	// GenerateKey consumes, the nonce stream of a seeded instance stays
	// where it was.
	t := &TPM{
		rng:           newDRBG(seed),
		keyRng:        newDRBG(append(append([]byte(nil), seed...), []byte("|keygen")...)),
		rsaBits:       bits,
		keys:          make(map[uint32]*loadedKey),
		sessions:      make(map[uint32]*session),
		nv:            make(map[uint32]*nvArea),
		counters:      make(map[uint32]*counter),
		nextCounterID: 0x03000000,
		nextHandle:    0x01000000,
		nextSession:   0x02000000,
	}
	t.signer = cfg.Signer
	t.keyPool = cfg.KeyPool
	ek, err := newKey(t.keyPool, t.keyRng, bits)
	if err != nil {
		return nil, fmt.Errorf("tpm: generating EK: %w", err)
	}
	t.ek = ek
	return t, nil
}

// AttachPools implements Engine.
func (t *TPM) AttachPools(signer *SignPool, keys *KeyPool) {
	t.mu.Lock()
	t.signer = signer
	t.keyPool = keys
	t.mu.Unlock()
}

// EKPub returns the endorsement public key (what ReadPubek reports).
func (t *TPM) EKPub() *rsa.PublicKey {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &t.ek.PublicKey
}

// Owned reports whether TakeOwnership has succeeded.
func (t *TPM) Owned() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.owned
}

// CommandCount returns the number of commands executed so far.
func (t *TPM) CommandCount() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commandCount
}

// PCRValue returns the current value of one PCR, for tests and verifiers
// co-located with the TPM. Remote verifiers must use Quote.
func (t *TPM) PCRValue(idx int) ([DigestSize]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= NumPCRs {
		return [DigestSize]byte{}, fmt.Errorf("tpm: PCR %d out of range", idx)
	}
	return t.pcrs[idx], nil
}

// allocHandle returns a fresh key handle.
func (t *TPM) allocHandle() uint32 {
	h := t.nextHandle
	t.nextHandle++
	return h
}

// allocSession returns a fresh session handle.
func (t *TPM) allocSession() uint32 {
	h := t.nextSession
	t.nextSession++
	return h
}

// keyByHandle resolves a key handle, including the well-known SRK handle.
func (t *TPM) keyByHandle(h uint32) (*loadedKey, bool) {
	if h == KHSRK {
		if t.srk == nil {
			return nil, false
		}
		return t.srk, true
	}
	k, ok := t.keys[h]
	return k, ok
}

// randBytes draws n bytes from the DRBG.
func (t *TPM) randBytes(n int) []byte {
	b := make([]byte, n)
	t.rng.Read(b) //nolint:errcheck // drbg.Read cannot fail
	return b
}

// forkSignRng derives an independent DRBG stream for one signing-pool job.
// The shared keyRng cannot be handed to pool workers — it is the engine's
// deterministic key stream and its reads must stay ordered by command
// execution — so each job gets a stream forked from a single in-lock draw.
// (RSASSA-PKCS1-v1_5 output does not depend on the rng; the fork only feeds
// blinding.) Caller holds t.mu.
func (t *TPM) forkSignRng() *drbg {
	var seed [32]byte
	t.keyRng.Read(seed[:]) //nolint:errcheck // drbg.Read cannot fail
	return newDRBG(seed[:])
}

// randNonce draws a fresh 20-byte nonce.
func (t *TPM) randNonce() (n [NonceSize]byte) {
	copy(n[:], t.randBytes(NonceSize))
	return n
}
