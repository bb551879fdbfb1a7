package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"xvtpm/internal/vtpm"
)

// The authenticated command channel. Every request a guest frontend sends
// carries a strictly increasing sequence number and is encrypted and MACed
// under a per-(instance, identity) channel key derived from the platform
// master secret. The key is installed into the frontend by the domain
// builder — the same trusted path that measures the guest — so a dom0
// component that later turns hostile holds neither the key nor any way to
// mint one.
//
// Envelope wire format (all big-endian):
//
//	dir(1) ∥ seq(8) ∥ ct(len-41) ∥ mac(32)
//
// where ct = AES-128-CTR(encKey, ctr₀ = dir ∥ seq ∥ 0⁵⁶) over the TPM
// command, and mac = HMAC-SHA256(macKey, dir ∥ seq ∥ ct). The counter block
// is structured, not random (the construction GCM uses): sequence numbers
// never repeat within a direction (strictly monotonic, enforced) and a
// message spans far fewer than 2⁵⁶ blocks, so no counter block — and hence
// no keystream block — ever repeats under a key. Deriving the start counter
// costs nothing and keeps the envelope as small as possible for the 4 KiB
// ring slots.
const (
	chanDirRequest  byte = 0x00
	chanDirResponse byte = 0x01
	chanMacSize          = sha256.Size
	chanHeaderSize       = 1 + 8
	chanOverhead         = chanHeaderSize + chanMacSize
)

// ChannelKeySize is the channel key length.
const ChannelKeySize = 32

// ChannelKey is one per-(instance, identity) channel secret.
type ChannelKey [ChannelKeySize]byte

// deriveChanKeys expands the channel key into cipher and MAC keys.
func deriveChanKeys(key ChannelKey) (encKey, macKey []byte) {
	h := hmac.New(sha256.New, key[:])
	h.Write([]byte("enc"))
	encKey = h.Sum(nil)[:16]
	h = hmac.New(sha256.New, key[:])
	h.Write([]byte("mac"))
	macKey = h.Sum(nil)
	return encKey, macKey
}

// chanCrypto caches the material deriveChanKeys expands a channel key into —
// the AES block (stateless, safe for concurrent use) and the MAC key — so a
// long-lived channel endpoint pays the two HMAC key derivations once instead
// of on every envelope. The zero value initializes lazily from the owning
// endpoint's key, which keeps the `serverChannel{key: k}` literal form that
// the tests and attack harness use working unchanged.
//
// It also pools envScratch values: keyed HMAC states cost several heap
// allocations to build, so the per-envelope cost on the hot path is a pool
// round trip and two Resets instead.
type chanCrypto struct {
	once   sync.Once
	block  cipher.Block
	macKey []byte
	pool   sync.Pool
}

func (c *chanCrypto) init(key ChannelKey) {
	c.once.Do(func() {
		encKey, macKey := deriveChanKeys(key)
		block, err := aes.NewCipher(encKey)
		if err != nil {
			panic(err) // 16-byte key from HMAC output: cannot fail
		}
		c.block = block
		c.macKey = macKey
	})
}

// envScratch holds every piece of per-envelope working state: the keyed tag
// HMAC, a Sum destination, and the CTR counter and keystream blocks. All
// fixed-size state lives in the (pooled, heap-resident) struct so none of it
// escapes per call.
type envScratch struct {
	mac hash.Hash // keyed with macKey: envelope tag
	sum [sha256.Size]byte
	ctr [aes.BlockSize]byte
	ks  [aes.BlockSize]byte
}

func (c *chanCrypto) scratch() *envScratch {
	if s, ok := c.pool.Get().(*envScratch); ok {
		return s
	}
	return &envScratch{mac: hmac.New(sha256.New, c.macKey)}
}

func (c *chanCrypto) release(s *envScratch) { c.pool.Put(s) }

// deriveIV loads the CTR start counter for (dir, seq) into s.ctr:
// dir ∥ seq ∥ 0⁵⁶. The zeroed low seven bytes are the within-message block
// counter; a slot-sized message never carries past them into the seq field.
func (s *envScratch) deriveIV(dir byte, seq uint64) {
	s.ctr[0] = dir
	binary.BigEndian.PutUint64(s.ctr[1:9], seq)
	clear(s.ctr[9:])
}

// ctrXOR applies AES-CTR keyed by block, starting from the counter in s.ctr
// (big-endian increment, as crypto/cipher's CTR mode does). dst and src may
// be the same slice.
func (s *envScratch) ctrXOR(block cipher.Block, dst, src []byte) {
	for i := 0; i < len(src); i += aes.BlockSize {
		block.Encrypt(s.ks[:], s.ctr[:])
		end := i + aes.BlockSize
		if end > len(src) {
			end = len(src)
		}
		for j := i; j < end; j++ {
			dst[j] = src[j] ^ s.ks[j-i]
		}
		for k := aes.BlockSize - 1; k >= 0; k-- {
			s.ctr[k]++
			if s.ctr[k] != 0 {
				break
			}
		}
	}
}

// sealEnvelope builds one channel envelope.
func sealEnvelope(key ChannelKey, dir byte, seq uint64, msg []byte) ([]byte, error) {
	return sealEnvelopeAppend(new(chanCrypto), key, nil, dir, seq, msg), nil
}

// sealEnvelopeAppend builds one channel envelope with cached key material,
// appending it to dst. The frontend passes its reusable transmit buffer with
// the ring tag byte already written, so the whole framed request is built in
// place with no per-call copy.
func sealEnvelopeAppend(c *chanCrypto, key ChannelKey, dst []byte, dir byte, seq uint64, msg []byte) []byte {
	c.init(key)
	s := c.scratch()
	n := len(dst)
	dst = grow(dst, chanHeaderSize+len(msg)+chanMacSize)
	out := dst[n:]
	out[0] = dir
	binary.BigEndian.PutUint64(out[1:], seq)
	s.deriveIV(dir, seq)
	s.ctrXOR(c.block, out[chanHeaderSize:chanHeaderSize+len(msg)], msg)
	s.mac.Reset()
	s.mac.Write(out[:chanHeaderSize+len(msg)])
	// out has exactly chanMacSize spare bytes, so Sum writes the tag in place.
	s.mac.Sum(out[:chanHeaderSize+len(msg)])
	c.release(s)
	return dst
}

// openEnvelope authenticates and decrypts one channel envelope, returning
// its direction, sequence number and plaintext.
func openEnvelope(key ChannelKey, payload []byte) (dir byte, seq uint64, msg []byte, err error) {
	return openEnvelopeCached(new(chanCrypto), key, payload)
}

// openEnvelopeCached is openEnvelope with cached key material.
func openEnvelopeCached(c *chanCrypto, key ChannelKey, payload []byte) (dir byte, seq uint64, msg []byte, err error) {
	return openEnvelopeAppend(c, key, nil, payload)
}

// openEnvelopeAppend is openEnvelopeCached with the plaintext appended to dst
// — callers that reuse a decode buffer open envelopes without allocating. The
// out return is dst extended by the plaintext (the plaintext alone is
// out[len(dst):], which equals out when dst was nil or empty).
func openEnvelopeAppend(c *chanCrypto, key ChannelKey, dst, payload []byte) (dir byte, seq uint64, out []byte, err error) {
	if len(payload) < chanOverhead {
		return 0, 0, nil, fmt.Errorf("%w: envelope of %d bytes", vtpm.ErrBadChannel, len(payload))
	}
	c.init(key)
	s := c.scratch()
	defer c.release(s)
	body := payload[:len(payload)-chanMacSize]
	s.mac.Reset()
	s.mac.Write(body)
	if subtle.ConstantTimeCompare(s.mac.Sum(s.sum[:0]), payload[len(payload)-chanMacSize:]) != 1 {
		return 0, 0, nil, vtpm.ErrBadChannel
	}
	dir = body[0]
	seq = binary.BigEndian.Uint64(body[1:9])
	n := len(dst)
	dst = grow(dst, len(body)-chanHeaderSize)
	s.deriveIV(dir, seq)
	s.ctrXOR(c.block, dst[n:], body[chanHeaderSize:])
	return dir, seq, dst, nil
}

// guestCodec is the frontend half of the channel: it implements
// vtpm.GuestCodec for one guest.
type guestCodec struct {
	key    ChannelKey
	crypto chanCrypto

	mu      sync.Mutex
	nextSeq uint64
}

// NewGuestCodec builds the frontend codec for a channel key. Exported for
// the attack harness, which needs a codec with a wrong key.
func NewGuestCodec(key ChannelKey) vtpm.GuestCodec {
	return &guestCodec{key: key, nextSeq: 1}
}

// EncodeRequest implements vtpm.GuestCodec: the envelope is appended to dst
// under the next sequence number, which is returned with it.
func (g *guestCodec) EncodeRequest(dst, cmd []byte) ([]byte, uint64, error) {
	g.mu.Lock()
	seq := g.nextSeq
	g.nextSeq++
	g.mu.Unlock()
	return sealEnvelopeAppend(&g.crypto, g.key, dst, chanDirRequest, seq, cmd), seq, nil
}

// DecodeResponse implements vtpm.GuestCodec: the response must carry exactly
// the sequence number of the request it answers, and its plaintext is
// appended to dst.
func (g *guestCodec) DecodeResponse(dst, payload []byte, want uint64) ([]byte, error) {
	dir, seq, out, err := openEnvelopeAppend(&g.crypto, g.key, dst, payload)
	if err != nil {
		return nil, err
	}
	if dir != chanDirResponse || seq != want {
		return nil, fmt.Errorf("%w: response dir %d seq %d, want %d", vtpm.ErrBadChannel, dir, seq, want)
	}
	return out, nil
}

// serverChannel is the manager-side half: it verifies request envelopes and
// enforces strict sequence monotonicity (the anti-replay window).
type serverChannel struct {
	key    ChannelKey
	crypto chanCrypto

	mu      sync.Mutex
	lastSeq uint64
}

// open verifies one request envelope and returns the command and its
// sequence number.
func (s *serverChannel) open(payload []byte) (cmd []byte, seq uint64, err error) {
	dir, seq, msg, err := openEnvelopeCached(&s.crypto, s.key, payload)
	if err != nil {
		return nil, 0, err
	}
	if dir != chanDirRequest {
		return nil, 0, fmt.Errorf("%w: reflected envelope", vtpm.ErrBadChannel)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.lastSeq {
		return nil, 0, fmt.Errorf("%w: seq %d, last %d", vtpm.ErrReplay, seq, s.lastSeq)
	}
	s.lastSeq = seq
	return msg, seq, nil
}

// seal builds the response envelope for a verified request.
func (s *serverChannel) seal(resp []byte, seq uint64) ([]byte, error) {
	return sealEnvelopeAppend(&s.crypto, s.key, nil, chanDirResponse, seq, resp), nil
}
