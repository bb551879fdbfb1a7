// Package attest implements the remote-attestation protocols that sit on
// top of the vTPM: privacy-CA enrollment of attestation identity keys
// (AIKs) and challenge-response quote verification. These are the consumers
// the vTPM exists for — a verifier off the host deciding whether a guest
// runs the software it claims — and the examples and experiments exercise
// them over the full guarded command path.
package attest

import (
	"bytes"
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"errors"
	"fmt"
	"io"
	"sync"

	"xvtpm/internal/tpm"
)

// Attestation errors.
var (
	ErrBadCert      = errors.New("attest: AIK certificate does not verify")
	ErrBadNonce     = errors.New("attest: unknown or reused nonce")
	ErrBadQuote     = errors.New("attest: quote signature does not verify")
	ErrWrongPCRs    = errors.New("attest: PCR values do not match the expected measurements")
	ErrBadChallenge = errors.New("attest: enrollment response does not match the challenge")
)

// AIKCert binds an AIK public key to a privacy-CA signature.
type AIKCert struct {
	AIKPub []byte // tpm wire form
	Sig    []byte // CA signature over SHA1(AIKPub)
}

// PrivacyCA issues AIK certificates after verifying, via the
// ActivateIdentity round trip, that the AIK lives in the TPM whose EK the
// requester presented.
type PrivacyCA struct {
	key *rsa.PrivateKey

	mu      sync.Mutex
	pending map[[sha1.Size]byte][]byte // aik digest → expected credential
}

// NewPrivacyCA creates a CA with a fresh signing key.
func NewPrivacyCA(bits int) (*PrivacyCA, error) {
	if bits == 0 {
		bits = tpm.DefaultRSABits
	}
	key, err := tpm.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	return &PrivacyCA{key: key, pending: make(map[[sha1.Size]byte][]byte)}, nil
}

// PublicKey returns the CA verification key verifiers pin.
func (ca *PrivacyCA) PublicKey() *rsa.PublicKey { return &ca.key.PublicKey }

// Challenge starts an enrollment: the CA binds a fresh credential to the
// claimed (EK, AIK) pair and returns it encrypted to the EK. Only the TPM
// holding that EK can release it — via ActivateIdentity, under owner
// authorization.
func (ca *PrivacyCA) Challenge(ekPub, aikPub *rsa.PublicKey) (encCred []byte, err error) {
	cred := make([]byte, 20)
	if _, err := io.ReadFull(rand.Reader, cred); err != nil {
		return nil, err
	}
	encCred, err = tpm.BindEncrypt(nil, ekPub, cred)
	if err != nil {
		return nil, fmt.Errorf("attest: encrypting credential: %w", err)
	}
	ca.mu.Lock()
	ca.pending[sha1.Sum(tpm.MarshalPublicKey(aikPub))] = cred
	ca.mu.Unlock()
	return encCred, nil
}

// Issue completes an enrollment: the requester returns the released
// credential, proving TPM residency, and receives the AIK certificate.
func (ca *PrivacyCA) Issue(aikPub *rsa.PublicKey, cred []byte) (*AIKCert, error) {
	pubBytes := tpm.MarshalPublicKey(aikPub)
	digest := sha1.Sum(pubBytes)
	ca.mu.Lock()
	want, ok := ca.pending[digest]
	if ok {
		delete(ca.pending, digest)
	}
	ca.mu.Unlock()
	if !ok || !bytes.Equal(want, cred) {
		return nil, ErrBadChallenge
	}
	sig, err := rsa.SignPKCS1v15(rand.Reader, ca.key, crypto.SHA1, digest[:])
	if err != nil {
		return nil, err
	}
	return &AIKCert{AIKPub: pubBytes, Sig: sig}, nil
}

// VerifyCert checks an AIK certificate against a CA public key.
func VerifyCert(caPub *rsa.PublicKey, cert *AIKCert) (*rsa.PublicKey, error) {
	digest := sha1.Sum(cert.AIKPub)
	if err := rsa.VerifyPKCS1v15(caPub, crypto.SHA1, digest[:], cert.Sig); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCert, err)
	}
	return tpm.UnmarshalPublicKey(cert.AIKPub)
}

// Verifier is a remote party deciding whether a guest's measured state
// matches a reference. It pins a CA key and a set of expected PCR values.
type Verifier struct {
	caPub    *rsa.PublicKey
	expected map[int][tpm.DigestSize]byte

	mu     sync.Mutex
	nonces map[[tpm.NonceSize]byte]bool
}

// NewVerifier creates a verifier pinning caPub and expecting the given PCR
// values.
func NewVerifier(caPub *rsa.PublicKey, expected map[int][tpm.DigestSize]byte) *Verifier {
	exp := make(map[int][tpm.DigestSize]byte, len(expected))
	for k, v := range expected {
		exp[k] = v
	}
	return &Verifier{caPub: caPub, expected: exp, nonces: make(map[[tpm.NonceSize]byte]bool)}
}

// Challenge issues a fresh single-use nonce.
func (v *Verifier) Challenge() ([tpm.NonceSize]byte, error) {
	var n [tpm.NonceSize]byte
	if _, err := io.ReadFull(rand.Reader, n[:]); err != nil {
		return n, err
	}
	v.mu.Lock()
	v.nonces[n] = true
	v.mu.Unlock()
	return n, nil
}

// VerifyQuote validates one attestation response: certificate chain, nonce
// freshness, quote signature, and PCR expectations. The selection must
// cover every expected register.
func (v *Verifier) VerifyQuote(cert *AIKCert, nonce [tpm.NonceSize]byte, q *tpm.QuoteResult) error {
	v.mu.Lock()
	fresh := v.nonces[nonce]
	if fresh {
		delete(v.nonces, nonce) // single use
	}
	v.mu.Unlock()
	if !fresh {
		return ErrBadNonce
	}
	aikPub, err := VerifyCert(v.caPub, cert)
	if err != nil {
		return err
	}
	sel, vals, err := tpm.ParseQuoteComposite(q.Composite)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuote, err)
	}
	composite := tpm.CompositeHash(sel, vals)
	if err := tpm.VerifySHA1(aikPub, tpm.QuoteInfoDigest(composite, nonce), q.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuote, err)
	}
	// Map selection indices to values (vals are in ascending index order).
	byIndex := make(map[int][tpm.DigestSize]byte, len(vals))
	for i, idx := range sel.Indices() {
		if i < len(vals) {
			byIndex[idx] = vals[i]
		}
	}
	for idx, want := range v.expected {
		got, ok := byIndex[idx]
		if !ok {
			return fmt.Errorf("%w: PCR %d not quoted", ErrWrongPCRs, idx)
		}
		if got != want {
			return fmt.Errorf("%w: PCR %d is %x, want %x", ErrWrongPCRs, idx, got, want)
		}
	}
	return nil
}

// VerifyKeyCertification checks a TPM_CertifyKey result: the certification
// must verify under an AIK certified by the pinned CA, proving the target
// key lives in the same TPM as the AIK. Returns the certified public key.
func VerifyKeyCertification(caPub *rsa.PublicKey, aikCert *AIKCert, res *tpm.CertifyKeyResult, antiReplay [tpm.NonceSize]byte) (*rsa.PublicKey, error) {
	aikPub, err := VerifyCert(caPub, aikCert)
	if err != nil {
		return nil, err
	}
	digest := tpm.CertifyInfoDigest(res.Usage, res.Scheme, res.PubKey, antiReplay)
	if err := tpm.VerifySHA1(aikPub, digest, res.Signature); err != nil {
		return nil, fmt.Errorf("%w: key certification: %v", ErrBadQuote, err)
	}
	return tpm.UnmarshalPublicKey(res.PubKey)
}

// Enroll performs the full AIK enrollment for a guest TPM over its client:
// MakeIdentity, CA challenge, ActivateIdentity, certificate issue. It
// returns the certificate, the loaded AIK handle and the AIK auth used.
func Enroll(cli *tpm.Client, ca *PrivacyCA, ekPub *rsa.PublicKey, ownerAuth, srkAuth, aikAuth [tpm.AuthSize]byte, label string) (*AIKCert, uint32, error) {
	blob, aikPub, err := cli.MakeIdentity(ownerAuth, aikAuth, []byte(label))
	if err != nil {
		return nil, 0, fmt.Errorf("attest: MakeIdentity: %w", err)
	}
	handle, err := cli.LoadKey2(tpm.KHSRK, srkAuth, blob)
	if err != nil {
		return nil, 0, fmt.Errorf("attest: loading AIK: %w", err)
	}
	encCred, err := ca.Challenge(ekPub, aikPub)
	if err != nil {
		return nil, 0, err
	}
	cred, err := cli.ActivateIdentity(handle, ownerAuth, encCred)
	if err != nil {
		return nil, 0, fmt.Errorf("attest: ActivateIdentity: %w", err)
	}
	cert, err := ca.Issue(aikPub, cred)
	if err != nil {
		return nil, 0, err
	}
	return cert, handle, nil
}
