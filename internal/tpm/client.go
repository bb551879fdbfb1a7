package tpm

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Transport carries marshaled TPM commands to an engine and returns the
// marshaled response. Implementations include DirectTransport (same-process
// hardware TPM), the vTPM frontend driver (over the shared ring) and the
// improved controller's authenticated channel.
type Transport interface {
	Transmit(cmd []byte) ([]byte, error)
}

// DirectTransport invokes a TPM engine in-process, as dom0 code talking to
// the hardware TPM does. The engine may speak either profile; pair it with
// the matching Client (1.2) or Client2 (2.0).
type DirectTransport struct {
	TPM Engine
}

// Transmit implements Transport.
func (d DirectTransport) Transmit(cmd []byte) ([]byte, error) {
	return d.TPM.Execute(cmd), nil
}

// TPMError is a non-success TPM return code.
type TPMError struct {
	Ordinal uint32
	Code    uint32
}

// Error implements error.
func (e *TPMError) Error() string {
	return fmt.Sprintf("tpm: ordinal %#x failed with code %#x", e.Ordinal, e.Code)
}

// IsTPMError reports whether err is a TPM error with the given code.
func IsTPMError(err error, code uint32) bool {
	var te *TPMError
	return errors.As(err, &te) && te.Code == code
}

// Client drives a TPM over a Transport, handling framing, authorization
// sessions and response verification.
type Client struct {
	tr        Transport
	rng       io.Reader
	sessCache *sessionCache // nil unless EnableSessionCache was called
}

// NewClient wraps a transport. rng supplies client nonces and OAEP padding;
// nil means crypto/rand.
func NewClient(tr Transport, rng io.Reader) *Client {
	if rng == nil {
		rng = rand.Reader
	}
	return &Client{tr: tr, rng: rng}
}

// Transport returns the client's underlying transport.
func (c *Client) Transport() Transport { return c.tr }

func (c *Client) nonce() (n [NonceSize]byte, err error) {
	_, err = io.ReadFull(c.rng, n[:])
	return n, err
}

// cmdWriterPool recycles command-frame Writers across run/runAuth calls:
// framing a command costs a pool round trip instead of a Writer and buffer
// allocation per command. Safe under concurrent clients (and concurrent
// calls into one client) because each call holds a private Writer between
// Get and Put. The Writer is released
// after Transmit returns — transports own their copy of the frame by then.
var cmdWriterPool = sync.Pool{New: func() interface{} { return new(Writer) }}

// run sends an unauthorized command and returns the response body.
func (c *Client) run(ordinal uint32, params []byte) (*Reader, error) {
	w := cmdWriterPool.Get().(*Writer)
	w.Reset()
	w.U16(TagRQUCommand)
	w.U32(uint32(10 + len(params)))
	w.U32(ordinal)
	w.Raw(params)
	resp, err := c.tr.Transmit(w.Bytes())
	cmdWriterPool.Put(w)
	if err != nil {
		return nil, err
	}
	return parseResponse(ordinal, resp, 0, nil)
}

// clientSession is a live authorization session from the client's side.
type clientSession struct {
	handle    uint32
	nonceEven [NonceSize]byte
	secret    []byte // HMAC key: entity secret (OIAP) or shared secret (OSAP)

	// Session-cache state (see sessioncache.go).
	mu     sync.Mutex
	cached bool
	key    [sha1.Size]byte
}

// oiap returns an OIAP session for secret — a cached reusable one when the
// session cache is enabled, a one-shot otherwise.
func (c *Client) oiap(secret []byte) (*clientSession, error) {
	return c.acquireSession(secret)
}

// oiapOneShot opens a fresh OIAP session whose commands will be authorized
// by secret.
func (c *Client) oiapOneShot(secret []byte) (*clientSession, error) {
	r, err := c.run(OrdOIAP, nil)
	if err != nil {
		return nil, err
	}
	s := &clientSession{handle: r.U32(), secret: secret}
	copy(s.nonceEven[:], r.Raw(NonceSize))
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// osap opens an OSAP session bound to an entity, deriving the shared secret
// from the entity's auth value.
func (c *Client) osap(entityType uint16, entityValue uint32, entityAuth [AuthSize]byte) (*clientSession, [NonceSize]byte, error) {
	var lastOSAPEven [NonceSize]byte
	nonceOddOSAP, err := c.nonce()
	if err != nil {
		return nil, lastOSAPEven, err
	}
	w := NewWriter()
	w.U16(entityType)
	w.U32(entityValue)
	w.Raw(nonceOddOSAP[:])
	r, err := c.run(OrdOSAP, w.Bytes())
	if err != nil {
		return nil, lastOSAPEven, err
	}
	s := &clientSession{handle: r.U32()}
	copy(s.nonceEven[:], r.Raw(NonceSize))
	copy(lastOSAPEven[:], r.Raw(NonceSize))
	if err := r.Err(); err != nil {
		return nil, lastOSAPEven, err
	}
	s.secret = hmacSHA1(entityAuth[:], lastOSAPEven[:], nonceOddOSAP[:])
	return s, lastOSAPEven, nil
}

// runAuth sends a command with one or two authorization sessions and
// returns the response body after verifying response MACs. Cached sessions
// are continued (continueAuthSession=1) with their nonces rolled; one-shot
// sessions are terminated by the engine after the command.
func (c *Client) runAuth(ordinal uint32, params []byte, auths []*clientSession) (_ *Reader, retErr error) {
	defer func() {
		for _, s := range auths {
			c.finishSession(s, retErr != nil)
		}
	}()
	tag := TagRQUCommand
	switch len(auths) {
	case 1:
		tag = TagRQUAuth1Command
	case 2:
		tag = TagRQUAuth2Command
	}
	d := NewWriter()
	d.U32(ordinal).Raw(params)
	paramDigest := sha1Sum(d.Bytes())
	trailer := NewWriter()
	odds := make([][NonceSize]byte, len(auths))
	for i, s := range auths {
		odd, err := c.nonce()
		if err != nil {
			return nil, err
		}
		odds[i] = odd
		contByte := byte(0)
		if s.cached {
			contByte = 1
		}
		mac := hmacSHA1(s.secret, paramDigest, s.nonceEven[:], odd[:], []byte{contByte})
		trailer.U32(s.handle)
		trailer.Raw(odd[:])
		trailer.U8(contByte)
		trailer.Raw(mac)
	}
	w := cmdWriterPool.Get().(*Writer)
	w.Reset()
	w.U16(tag)
	w.U32(uint32(10 + len(params) + trailer.Len()))
	w.U32(ordinal)
	w.Raw(params)
	w.Raw(trailer.Bytes())
	resp, err := c.tr.Transmit(w.Bytes())
	cmdWriterPool.Put(w)
	if err != nil {
		return nil, err
	}
	return parseResponse(ordinal, resp, len(auths), func(outBody []byte, blocks []respAuth) error {
		rd := NewWriter()
		rd.U32(RCSuccess).U32(ordinal).Raw(outBody)
		respDigest := sha1Sum(rd.Bytes())
		for i, b := range blocks {
			want := hmacSHA1(auths[i].secret, respDigest, b.nonceEven[:], odds[i][:], []byte{b.cont})
			if !hmacEqual(want, b.mac[:]) {
				return fmt.Errorf("tpm: response authentication failed (forged or corrupted response)")
			}
		}
		// Roll the nonces of continued sessions so the next command MACs
		// against the engine's fresh nonceEven.
		for i, b := range blocks {
			if auths[i].cached && b.cont == 1 {
				auths[i].nonceEven = b.nonceEven
			}
		}
		return nil
	})
}

// respAuth is one response authorization section.
type respAuth struct {
	nonceEven [NonceSize]byte
	cont      byte
	mac       [AuthSize]byte
}

// respAuthSize is the wire size of one response auth section.
const respAuthSize = NonceSize + 1 + AuthSize

// parseResponse validates framing and return code, splits off response auth
// sections and hands them to verify.
func parseResponse(ordinal uint32, resp []byte, nAuth int, verify func(outBody []byte, blocks []respAuth) error) (*Reader, error) {
	// The 10-byte header is parsed in place (no Reader) — this runs once per
	// command on the guest hot path.
	if len(resp) < 10 {
		return nil, fmt.Errorf("tpm: malformed response framing")
	}
	tag := binary.BigEndian.Uint16(resp)
	size := binary.BigEndian.Uint32(resp[2:])
	rc := binary.BigEndian.Uint32(resp[6:])
	if int(size) != len(resp) {
		return nil, fmt.Errorf("tpm: malformed response framing")
	}
	if rc != RCSuccess {
		return nil, &TPMError{Ordinal: ordinal, Code: rc}
	}
	wantTag := TagRSPCommand
	switch nAuth {
	case 1:
		wantTag = TagRSPAuth1Command
	case 2:
		wantTag = TagRSPAuth2Command
	}
	if tag != wantTag {
		return nil, fmt.Errorf("tpm: response tag %#x, want %#x", tag, wantTag)
	}
	rest := resp[10:]
	need := nAuth * respAuthSize
	if len(rest) < need {
		return nil, fmt.Errorf("tpm: response too short for %d auth sections", nAuth)
	}
	outBody := rest[:len(rest)-need]
	if verify != nil {
		blocks := make([]respAuth, nAuth)
		tb := rest[len(rest)-need:]
		for i := 0; i < nAuth; i++ {
			br := NewReader(tb[i*respAuthSize : (i+1)*respAuthSize])
			copy(blocks[i].nonceEven[:], br.Raw(NonceSize))
			blocks[i].cont = br.U8()
			copy(blocks[i].mac[:], br.Raw(AuthSize))
		}
		if err := verify(outBody, blocks); err != nil {
			return nil, err
		}
	}
	return NewReader(outBody), nil
}

// adipEncrypt protects a new-entity secret for transport inside an
// OSAP-authorized command.
func adipEncrypt(sharedSecret []byte, lastEven [NonceSize]byte, newAuth [AuthSize]byte) [AuthSize]byte {
	pad := sha1Sum(sharedSecret, lastEven[:])
	var out [AuthSize]byte
	for i := range out {
		out[i] = newAuth[i] ^ pad[i]
	}
	return out
}

// --- Unauthorized commands ---

// Startup issues TPM_Startup.
func (c *Client) Startup(st uint16) error {
	w := NewWriter()
	w.U16(st)
	_, err := c.run(OrdStartup, w.Bytes())
	return err
}

// SelfTestFull issues TPM_SelfTestFull.
func (c *Client) SelfTestFull() error {
	_, err := c.run(OrdSelfTestFull, nil)
	return err
}

// GetRandom returns n bytes from the TPM's RNG.
func (c *Client) GetRandom(n int) ([]byte, error) {
	w := NewWriter()
	w.U32(uint32(n))
	r, err := c.run(OrdGetRandom, w.Bytes())
	if err != nil {
		return nil, err
	}
	out := r.B32()
	return out, r.Err()
}

// StirRandom mixes entropy into the TPM's RNG.
func (c *Client) StirRandom(data []byte) error {
	w := NewWriter()
	w.B32(data)
	_, err := c.run(OrdStirRandom, w.Bytes())
	return err
}

// Extend folds a measurement into a PCR and returns the new value.
func (c *Client) Extend(pcr uint32, digest [DigestSize]byte) ([DigestSize]byte, error) {
	w := NewWriter()
	w.U32(pcr)
	w.Raw(digest[:])
	r, err := c.run(OrdExtend, w.Bytes())
	if err != nil {
		return [DigestSize]byte{}, err
	}
	out := r.Digest()
	return out, r.Err()
}

// PCRRead returns a PCR's current value.
func (c *Client) PCRRead(pcr uint32) ([DigestSize]byte, error) {
	w := NewWriter()
	w.U32(pcr)
	r, err := c.run(OrdPCRRead, w.Bytes())
	if err != nil {
		return [DigestSize]byte{}, err
	}
	out := r.Digest()
	return out, r.Err()
}

// PCRReset clears the selected resettable PCRs.
func (c *Client) PCRReset(indices ...int) error {
	w := NewWriter()
	NewPCRSelection(indices...).Marshal(w)
	_, err := c.run(OrdPCRReset, w.Bytes())
	return err
}

// ReadPubek fetches the endorsement public key (pre-ownership only).
func (c *Client) ReadPubek() (*rsa.PublicKey, error) {
	r, err := c.run(OrdReadPubek, nil)
	if err != nil {
		return nil, err
	}
	blob := r.B32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return UnmarshalPublicKey(blob)
}

// getCapability runs TPM_GetCapability for one capability area and
// sub-capability, returning the response blob.
func (c *Client) getCapability(area uint32, sub []byte) ([]byte, error) {
	w := NewWriter()
	w.U32(area)
	w.B32(sub)
	r, err := c.run(OrdGetCapability, w.Bytes())
	if err != nil {
		return nil, err
	}
	blob := r.B32()
	return blob, r.Err()
}

// GetCapabilityProperty fetches one uint32 property.
func (c *Client) GetCapabilityProperty(prop uint32) (uint32, error) {
	blob, err := c.getCapability(CapProperty, NewWriter().U32(prop).Bytes())
	if err != nil {
		return 0, err
	}
	return NewReader(blob).U32(), nil
}

// OrdinalSupported asks the TPM whether it implements an ordinal
// (TPM_CAP_ORD).
func (c *Client) OrdinalSupported(ordinal uint32) (bool, error) {
	blob, err := c.getCapability(CapOrd, NewWriter().U32(ordinal).Bytes())
	if err != nil {
		return false, err
	}
	return len(blob) == 1 && blob[0] == 1, nil
}

// LoadedKeyCount reports how many keys are loaded in the TPM's key slots
// (TPM_CAP_HANDLE), the well-known SRK handle excluded.
func (c *Client) LoadedKeyCount() (uint32, error) {
	blob, err := c.getCapability(CapHandle, nil)
	if err != nil {
		return 0, err
	}
	return NewReader(blob).U32(), nil
}

// FlushKey evicts a loaded key.
func (c *Client) FlushKey(handle uint32) error {
	w := NewWriter()
	w.U32(handle)
	w.U32(RTKey)
	_, err := c.run(OrdFlushSpecific, w.Bytes())
	return err
}

// ForceClear wipes ownership (physical presence path).
func (c *Client) ForceClear() error {
	_, err := c.run(OrdForceClear, nil)
	return err
}

// --- Authorized commands ---

// TakeOwnership installs owner and SRK secrets, returning the SRK public
// key. Secrets travel OAEP-encrypted under the EK.
func (c *Client) TakeOwnership(ownerAuth, srkAuth [AuthSize]byte) (*rsa.PublicKey, error) {
	return c.takeOwnership(ownerAuth, srkAuth, KeyParams{Usage: KeyUsageStorage, Scheme: ESRSAESOAEP})
}

// takeOwnership is TakeOwnership with the SRK's key parameters given.
func (c *Client) takeOwnership(ownerAuth, srkAuth [AuthSize]byte, srkParams KeyParams) (*rsa.PublicKey, error) {
	ekPub, err := c.ReadPubek()
	if err != nil {
		return nil, fmt.Errorf("reading EK: %w", err)
	}
	encOwner, err := oaepEncrypt(c.rng, ekPub, ownerAuth[:])
	if err != nil {
		return nil, err
	}
	encSRK, err := oaepEncrypt(c.rng, ekPub, srkAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U16(protocolIDOwner)
	w.B32(encOwner)
	w.B32(encSRK)
	srkParams.Marshal(w)
	sess, err := c.oiap(ownerAuth[:])
	if err != nil {
		return nil, err
	}
	r, err := c.runAuth(OrdTakeOwnership, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return nil, err
	}
	blob := r.B32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return UnmarshalPublicKey(blob)
}

// OwnerClear removes TPM ownership.
func (c *Client) OwnerClear(ownerAuth [AuthSize]byte) error {
	sess, err := c.oiap(ownerAuth[:])
	if err != nil {
		return err
	}
	_, err = c.runAuth(OrdOwnerClear, nil, []*clientSession{sess})
	return err
}

// entityForKey maps a key handle to its OSAP entity coordinates.
func entityForKey(handle uint32) (uint16, uint32) {
	if handle == KHSRK {
		return ETSRK, KHSRK
	}
	return ETKeyHandle, handle
}

// CreateWrapKey generates a child key under a loaded storage key and returns
// the wrapped key blob. Non-migratable keys ignore the migration secret.
func (c *Client) CreateWrapKey(parent uint32, parentAuth, usageAuth [AuthSize]byte, params KeyParams) ([]byte, error) {
	return c.CreateWrapKeyMigratable(parent, parentAuth, usageAuth, [AuthSize]byte{}, params)
}

// CreateWrapKeyMigratable is CreateWrapKey with an explicit migration
// secret; set FlagMigratable in params to make the key migratable under
// that secret.
func (c *Client) CreateWrapKeyMigratable(parent uint32, parentAuth, usageAuth, migAuth [AuthSize]byte, params KeyParams) ([]byte, error) {
	et, ev := entityForKey(parent)
	sess, _, err := c.osap(et, ev, parentAuth)
	if err != nil {
		return nil, err
	}
	encAuth := adipEncrypt(sess.secret, sess.nonceEven, usageAuth)
	w := NewWriter()
	w.U32(parent)
	w.Raw(encAuth[:])
	// The migration secret's pad is keyed on the odd nonce we are about to
	// send, so the envelope must be assembled by runAuthPrepared.
	return c.runAuthWithOddADIP(OrdCreateWrapKey, w.Bytes(), sess, migAuth, params)
}

// runAuthWithOddADIP finishes a CreateWrapKey-style command whose body needs
// the second ADIP secret (padded with nonceOdd) inserted before the params.
func (c *Client) runAuthWithOddADIP(ordinal uint32, prefix []byte, sess *clientSession, second [AuthSize]byte, params KeyParams) ([]byte, error) {
	odd, err := c.nonce()
	if err != nil {
		return nil, err
	}
	pad := sha1Sum(sess.secret, odd[:])
	var encSecond [AuthSize]byte
	for i := range encSecond {
		encSecond[i] = second[i] ^ pad[i]
	}
	body := NewWriter()
	body.Raw(prefix)
	body.Raw(encSecond[:])
	params.Marshal(body)
	r, err := c.runAuthFixedOdd(ordinal, body.Bytes(), sess, odd)
	if err != nil {
		return nil, err
	}
	blob := r.B32()
	return blob, r.Err()
}

// runAuthFixedOdd is runAuth for one session with a caller-chosen odd nonce
// (needed when the body itself depends on that nonce).
func (c *Client) runAuthFixedOdd(ordinal uint32, params []byte, s *clientSession, odd [NonceSize]byte) (*Reader, error) {
	d := NewWriter()
	d.U32(ordinal).Raw(params)
	paramDigest := sha1Sum(d.Bytes())
	mac := hmacSHA1(s.secret, paramDigest, s.nonceEven[:], odd[:], []byte{0})
	trailer := NewWriter()
	trailer.U32(s.handle)
	trailer.Raw(odd[:])
	trailer.U8(0)
	trailer.Raw(mac)
	w := NewWriter()
	w.U16(TagRQUAuth1Command)
	w.U32(uint32(10 + len(params) + trailer.Len()))
	w.U32(ordinal)
	w.Raw(params)
	w.Raw(trailer.Bytes())
	resp, err := c.tr.Transmit(w.Bytes())
	if err != nil {
		return nil, err
	}
	return parseResponse(ordinal, resp, 1, func(outBody []byte, blocks []respAuth) error {
		rd := NewWriter()
		rd.U32(RCSuccess).U32(ordinal).Raw(outBody)
		respDigest := sha1Sum(rd.Bytes())
		want := hmacSHA1(s.secret, respDigest, blocks[0].nonceEven[:], odd[:], []byte{blocks[0].cont})
		if !hmacEqual(want, blocks[0].mac[:]) {
			return fmt.Errorf("tpm: response authentication failed (forged or corrupted response)")
		}
		return nil
	})
}

// AuthorizeMigrationKey has the owner bless a migration destination public
// key, returning the ticket CreateMigrationBlob requires.
func (c *Client) AuthorizeMigrationKey(ownerAuth [AuthSize]byte, destPub *rsa.PublicKey) ([]byte, error) {
	sess, err := c.oiap(ownerAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U16(MSRewrap)
	w.B32(MarshalPublicKey(destPub))
	r, err := c.runAuth(OrdAuthorizeMigrationKey, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return nil, err
	}
	ticket := r.B32()
	return ticket, r.Err()
}

// CreateMigrationBlob re-wraps a migratable key blob for the ticketed
// destination and returns a key blob loadable under the destination parent.
func (c *Client) CreateMigrationBlob(parent uint32, parentAuth, migAuth [AuthSize]byte, keyBlob, ticket []byte) ([]byte, error) {
	parentSess, err := c.oiap(parentAuth[:])
	if err != nil {
		return nil, err
	}
	migSess, err := c.oiap(migAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U32(parent)
	w.B32(ticket)
	w.B32(keyBlob)
	r, err := c.runAuth(OrdCreateMigrationBlob, w.Bytes(), []*clientSession{parentSess, migSess})
	if err != nil {
		return nil, err
	}
	newEncPriv := r.B32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Reassemble a loadable key blob: public parts unchanged, private part
	// re-wrapped for the destination.
	params, pub, _, ok := ParseKeyBlobPublic(keyBlob)
	if !ok {
		return nil, fmt.Errorf("tpm: malformed source key blob")
	}
	out := NewWriter()
	params.Marshal(out)
	out.B32(pub)
	out.B32(newEncPriv)
	return out.Bytes(), nil
}

// LoadKey2 loads a wrapped key under its parent and returns its handle.
func (c *Client) LoadKey2(parent uint32, parentAuth [AuthSize]byte, blob []byte) (uint32, error) {
	sess, err := c.oiap(parentAuth[:])
	if err != nil {
		return 0, err
	}
	w := NewWriter()
	w.U32(parent)
	w.B32(blob)
	r, err := c.runAuth(OrdLoadKey2, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return 0, err
	}
	h := r.U32()
	return h, r.Err()
}

// GetPubKey returns the public part of a loaded key.
func (c *Client) GetPubKey(handle uint32, usageAuth [AuthSize]byte) (*rsa.PublicKey, error) {
	sess, err := c.oiap(usageAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U32(handle)
	r, err := c.runAuth(OrdGetPubKey, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return nil, err
	}
	blob := r.B32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return UnmarshalPublicKey(blob)
}

// Seal binds data to this TPM under a storage key, optionally gated on a PCR
// state, and returns the sealed blob.
func (c *Client) Seal(keyHandle uint32, keyAuth, dataAuth [AuthSize]byte, pcrInfo *PCRInfo, data []byte) ([]byte, error) {
	et, ev := entityForKey(keyHandle)
	sess, _, err := c.osap(et, ev, keyAuth)
	if err != nil {
		return nil, err
	}
	encAuth := adipEncrypt(sess.secret, sess.nonceEven, dataAuth)
	var infoBytes []byte
	if pcrInfo != nil {
		infoBytes = pcrInfo.MarshalBytes()
	}
	w := NewWriter()
	w.U32(keyHandle)
	w.Raw(encAuth[:])
	w.B32(infoBytes)
	w.B32(data)
	r, err := c.runAuth(OrdSeal, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return nil, err
	}
	blob := r.B32()
	return blob, r.Err()
}

// Unseal releases sealed data, proving knowledge of both the key auth and
// the blob auth.
func (c *Client) Unseal(keyHandle uint32, keyAuth, dataAuth [AuthSize]byte, blob []byte) ([]byte, error) {
	keySess, err := c.oiap(keyAuth[:])
	if err != nil {
		return nil, err
	}
	dataSess, err := c.oiap(dataAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U32(keyHandle)
	w.B32(blob)
	r, err := c.runAuth(OrdUnseal, w.Bytes(), []*clientSession{keySess, dataSess})
	if err != nil {
		return nil, err
	}
	data := r.B32()
	return data, r.Err()
}

// UnBind decrypts data OAEP-encrypted to a loaded bind key.
func (c *Client) UnBind(keyHandle uint32, keyAuth [AuthSize]byte, encData []byte) ([]byte, error) {
	sess, err := c.oiap(keyAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U32(keyHandle)
	w.B32(encData)
	r, err := c.runAuth(OrdUnBind, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return nil, err
	}
	data := r.B32()
	return data, r.Err()
}

// BindEncrypt OAEP-encrypts data to a bind key's public half; the matching
// UnBind runs inside the TPM that holds the private half. Exported at the
// package level because the encrypting party has no TPM of its own.
func BindEncrypt(rng io.Reader, pub *rsa.PublicKey, data []byte) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	return oaepEncrypt(rng, pub, data)
}

// Sign signs a SHA-1 digest with a loaded signing key.
func (c *Client) Sign(keyHandle uint32, keyAuth [AuthSize]byte, digest [DigestSize]byte) ([]byte, error) {
	sess, err := c.oiap(keyAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U32(keyHandle)
	w.B32(digest[:])
	r, err := c.runAuth(OrdSign, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return nil, err
	}
	sig := r.B32()
	return sig, r.Err()
}

// QuoteResult is a verified-parseable quote.
type QuoteResult struct {
	Composite []byte // selection ∥ len ∥ values, as signed
	Signature []byte
}

// Quote signs the selected PCRs with verifier-supplied external data.
func (c *Client) Quote(keyHandle uint32, keyAuth [AuthSize]byte, externalData [NonceSize]byte, sel PCRSelection) (*QuoteResult, error) {
	sess, err := c.oiap(keyAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U32(keyHandle)
	w.Raw(externalData[:])
	sel.Marshal(w)
	r, err := c.runAuth(OrdQuote, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return nil, err
	}
	q := &QuoteResult{Composite: r.B32(), Signature: r.B32()}
	return q, r.Err()
}

// MakeIdentity creates an AIK under the SRK; returns the wrapped blob and
// public key.
func (c *Client) MakeIdentity(ownerAuth, aikAuth [AuthSize]byte, label []byte) (blob []byte, pub *rsa.PublicKey, err error) {
	sess, _, err := c.osap(ETOwner, 0, ownerAuth)
	if err != nil {
		return nil, nil, err
	}
	encAuth := adipEncrypt(sess.secret, sess.nonceEven, aikAuth)
	w := NewWriter()
	w.Raw(encAuth[:])
	w.Raw(sha1Sum(label))
	r, err := c.runAuth(OrdMakeIdentity, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return nil, nil, err
	}
	blob = r.B32()
	pubBytes := r.B32()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	pub, err = UnmarshalPublicKey(pubBytes)
	return blob, pub, err
}

// ActivateIdentity releases a privacy-CA credential encrypted to the EK.
func (c *Client) ActivateIdentity(idHandle uint32, ownerAuth [AuthSize]byte, encBlob []byte) ([]byte, error) {
	sess, err := c.oiap(ownerAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U32(idHandle)
	w.B32(encBlob)
	r, err := c.runAuth(OrdActivateIdentity, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return nil, err
	}
	cred := r.B32()
	return cred, r.Err()
}

// CreateCounter creates a monotonic counter, returning its handle and
// starting value.
func (c *Client) CreateCounter(ownerAuth, counterAuth [AuthSize]byte, label [4]byte) (id uint32, value uint32, err error) {
	sess, _, err := c.osap(ETOwner, 0, ownerAuth)
	if err != nil {
		return 0, 0, err
	}
	encAuth := adipEncrypt(sess.secret, sess.nonceEven, counterAuth)
	w := NewWriter()
	w.Raw(encAuth[:])
	w.Raw(label[:])
	r, err := c.runAuth(OrdCreateCounter, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return 0, 0, err
	}
	id = r.U32()
	value = r.U32()
	return id, value, r.Err()
}

// IncrementCounter bumps a counter and returns its new value.
func (c *Client) IncrementCounter(id uint32, counterAuth [AuthSize]byte) (uint32, error) {
	sess, err := c.oiap(counterAuth[:])
	if err != nil {
		return 0, err
	}
	w := NewWriter()
	w.U32(id)
	r, err := c.runAuth(OrdIncrementCounter, w.Bytes(), []*clientSession{sess})
	if err != nil {
		return 0, err
	}
	v := r.U32()
	return v, r.Err()
}

// ReadCounter reads a counter without authorization.
func (c *Client) ReadCounter(id uint32) (label [4]byte, value uint32, err error) {
	w := NewWriter()
	w.U32(id)
	r, err := c.run(OrdReadCounter, w.Bytes())
	if err != nil {
		return label, 0, err
	}
	copy(label[:], r.Raw(4))
	value = r.U32()
	return label, value, r.Err()
}

// ReleaseCounter frees a counter.
func (c *Client) ReleaseCounter(id uint32, counterAuth [AuthSize]byte) error {
	sess, err := c.oiap(counterAuth[:])
	if err != nil {
		return err
	}
	w := NewWriter()
	w.U32(id)
	_, err = c.runAuth(OrdReleaseCounter, w.Bytes(), []*clientSession{sess})
	return err
}

// ResetLockValue clears the dictionary-attack lockout under owner auth.
func (c *Client) ResetLockValue(ownerAuth [AuthSize]byte) error {
	sess, err := c.oiap(ownerAuth[:])
	if err != nil {
		return err
	}
	_, err = c.runAuth(OrdResetLockValue, nil, []*clientSession{sess})
	return err
}

// CertifyKeyResult is a parsed key certification.
type CertifyKeyResult struct {
	Usage     uint16
	Scheme    uint16
	PubKey    []byte // certified public key, tpm wire form
	Signature []byte
}

// CertifyKey has certHandle attest that keyHandle lives in this TPM.
func (c *Client) CertifyKey(certHandle uint32, certAuth [AuthSize]byte, keyHandle uint32, keyAuth [AuthSize]byte, antiReplay [NonceSize]byte) (*CertifyKeyResult, error) {
	certSess, err := c.oiap(certAuth[:])
	if err != nil {
		return nil, err
	}
	keySess, err := c.oiap(keyAuth[:])
	if err != nil {
		return nil, err
	}
	w := NewWriter()
	w.U32(certHandle)
	w.U32(keyHandle)
	w.Raw(antiReplay[:])
	r, err := c.runAuth(OrdCertifyKey, w.Bytes(), []*clientSession{certSess, keySess})
	if err != nil {
		return nil, err
	}
	info := r.B32()
	sig := r.B32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	ir := NewReader(info)
	res := &CertifyKeyResult{Usage: ir.U16(), Scheme: ir.U16(), PubKey: ir.B32(), Signature: sig}
	return res, ir.Err()
}

// NVDefineSpace defines (size > 0) or deletes (size == 0) an NV index.
func (c *Client) NVDefineSpace(ownerAuth [AuthSize]byte, index, size, perms uint32, areaAuth [AuthSize]byte) error {
	sess, _, err := c.osap(ETOwner, 0, ownerAuth)
	if err != nil {
		return err
	}
	encAuth := adipEncrypt(sess.secret, sess.nonceEven, areaAuth)
	w := NewWriter()
	w.U32(index)
	w.U32(size)
	w.U32(perms)
	w.Raw(encAuth[:])
	_, err = c.runAuth(OrdNVDefineSpace, w.Bytes(), []*clientSession{sess})
	return err
}

// NVWrite writes to an NV index. auth is the owner auth or area auth
// depending on the area's permission bits; nil means no authorization.
func (c *Client) NVWrite(index, offset uint32, data []byte, auth *[AuthSize]byte) error {
	w := NewWriter()
	w.U32(index)
	w.U32(offset)
	w.B32(data)
	if auth == nil {
		_, err := c.run(OrdNVWriteValue, w.Bytes())
		return err
	}
	sess, err := c.oiap(auth[:])
	if err != nil {
		return err
	}
	_, err = c.runAuth(OrdNVWriteValue, w.Bytes(), []*clientSession{sess})
	return err
}

// NVRead reads from an NV index; auth semantics match NVWrite.
func (c *Client) NVRead(index, offset, size uint32, auth *[AuthSize]byte) ([]byte, error) {
	w := NewWriter()
	w.U32(index)
	w.U32(offset)
	w.U32(size)
	var r *Reader
	var err error
	if auth == nil {
		r, err = c.run(OrdNVReadValue, w.Bytes())
	} else {
		var sess *clientSession
		sess, err = c.oiap(auth[:])
		if err != nil {
			return nil, err
		}
		r, err = c.runAuth(OrdNVReadValue, w.Bytes(), []*clientSession{sess})
	}
	if err != nil {
		return nil, err
	}
	data := r.B32()
	return data, r.Err()
}
