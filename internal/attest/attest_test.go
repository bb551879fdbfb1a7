package attest

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"errors"
	"testing"

	"xvtpm/internal/tpm"
)

const testBits = 512

func authOf(s string) (a [tpm.AuthSize]byte) {
	h := sha1.Sum([]byte(s))
	copy(a[:], h[:])
	return a
}

var (
	ownerAuth = authOf("owner")
	srkAuth   = authOf("srk")
	aikAuth   = authOf("aik")
)

// rig is one guest TPM plus the attestation parties.
type rig struct {
	cli    *tpm.Client
	ca     *PrivacyCA
	cert   *AIKCert
	handle uint32
}

func newRig(t testing.TB, seed string) *rig {
	t.Helper()
	eng, err := tpm.New(tpm.Config{RSABits: testBits, Seed: []byte(seed)})
	if err != nil {
		t.Fatal(err)
	}
	cli := tpm.NewClient(tpm.DirectTransport{TPM: eng}, nil)
	if err := cli.Startup(tpm.STClear); err != nil {
		t.Fatal(err)
	}
	ekPub, err := cli.ReadPubek()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.TakeOwnership(ownerAuth, srkAuth); err != nil {
		t.Fatal(err)
	}
	ca, err := NewPrivacyCA(testBits)
	if err != nil {
		t.Fatal(err)
	}
	cert, handle, err := Enroll(cli, ca, ekPub, ownerAuth, srkAuth, aikAuth, "test-aik")
	if err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	return &rig{cli: cli, ca: ca, cert: cert, handle: handle}
}

func TestEnrollmentIssuesVerifiableCert(t *testing.T) {
	r := newRig(t, "e1")
	if _, err := VerifyCert(r.ca.PublicKey(), r.cert); err != nil {
		t.Fatalf("VerifyCert: %v", err)
	}
	// Tampered certificate fails.
	bad := &AIKCert{AIKPub: r.cert.AIKPub, Sig: append([]byte(nil), r.cert.Sig...)}
	bad.Sig[0] ^= 0xFF
	if _, err := VerifyCert(r.ca.PublicKey(), bad); !errors.Is(err, ErrBadCert) {
		t.Fatalf("tampered cert err = %v", err)
	}
}

func TestEnrollmentRejectsWrongCredential(t *testing.T) {
	r := newRig(t, "e2")
	aikPub, err := tpm.UnmarshalPublicKey(r.cert.AIKPub)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ca.Issue(aikPub, []byte("guessed-credential")); !errors.Is(err, ErrBadChallenge) {
		t.Fatalf("err = %v", err)
	}
}

func TestFullAttestationRoundTrip(t *testing.T) {
	r := newRig(t, "a1")
	// The guest measures two stages.
	m0 := sha1.Sum([]byte("bios"))
	m1 := sha1.Sum([]byte("kernel"))
	v0, _ := r.cli.Extend(0, m0)
	v1, _ := r.cli.Extend(1, m1)

	verifier := NewVerifier(r.ca.PublicKey(), map[int][tpm.DigestSize]byte{0: v0, 1: v1})
	nonce, err := verifier.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	q, err := r.cli.Quote(r.handle, aikAuth, nonce, tpm.NewPCRSelection(0, 1))
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	if err := verifier.VerifyQuote(r.cert, nonce, q); err != nil {
		t.Fatalf("VerifyQuote: %v", err)
	}
}

func TestAttestationDetectsWrongMeasurements(t *testing.T) {
	r := newRig(t, "a2")
	good := sha1.Sum([]byte("kernel"))
	v0, _ := r.cli.Extend(0, good)
	verifier := NewVerifier(r.ca.PublicKey(), map[int][tpm.DigestSize]byte{0: v0})
	// The guest's PCR 0 drifts (rootkit loads).
	r.cli.Extend(0, sha1.Sum([]byte("rootkit")))
	nonce, _ := verifier.Challenge()
	q, err := r.cli.Quote(r.handle, aikAuth, nonce, tpm.NewPCRSelection(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.VerifyQuote(r.cert, nonce, q); !errors.Is(err, ErrWrongPCRs) {
		t.Fatalf("err = %v, want ErrWrongPCRs", err)
	}
}

func TestAttestationRejectsNonceReuse(t *testing.T) {
	r := newRig(t, "a3")
	v0, _ := r.cli.PCRRead(0)
	verifier := NewVerifier(r.ca.PublicKey(), map[int][tpm.DigestSize]byte{0: v0})
	nonce, _ := verifier.Challenge()
	q, err := r.cli.Quote(r.handle, aikAuth, nonce, tpm.NewPCRSelection(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.VerifyQuote(r.cert, nonce, q); err != nil {
		t.Fatal(err)
	}
	// Replaying the same quote (same nonce) fails.
	if err := verifier.VerifyQuote(r.cert, nonce, q); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("replay err = %v", err)
	}
	// A made-up nonce fails too.
	var fake [tpm.NonceSize]byte
	if err := verifier.VerifyQuote(r.cert, fake, q); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("fake nonce err = %v", err)
	}
}

func TestAttestationRejectsMissingPCR(t *testing.T) {
	r := newRig(t, "a4")
	v0, _ := r.cli.PCRRead(0)
	v5, _ := r.cli.PCRRead(5)
	verifier := NewVerifier(r.ca.PublicKey(), map[int][tpm.DigestSize]byte{0: v0, 5: v5})
	nonce, _ := verifier.Challenge()
	// Quote covers only PCR 0 — the verifier expects 5 as well.
	q, err := r.cli.Quote(r.handle, aikAuth, nonce, tpm.NewPCRSelection(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.VerifyQuote(r.cert, nonce, q); !errors.Is(err, ErrWrongPCRs) {
		t.Fatalf("err = %v", err)
	}
}

func TestKeyCertificationChain(t *testing.T) {
	r := newRig(t, "kc1")
	// A fresh signing key, certified by the enrolled AIK.
	keyAuth := authOf("app-key")
	blob, err := r.cli.CreateWrapKey(tpm.KHSRK, srkAuth, keyAuth, tpm.KeyParams{
		Usage: tpm.KeyUsageSigning, Scheme: tpm.SSRSASSAPKCS1v15SHA1, Bits: testBits,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.cli.LoadKey2(tpm.KHSRK, srkAuth, blob)
	if err != nil {
		t.Fatal(err)
	}
	var antiReplay [tpm.NonceSize]byte
	antiReplay[0] = 0x42
	res, err := r.cli.CertifyKey(r.handle, aikAuth, h, keyAuth, antiReplay)
	if err != nil {
		t.Fatalf("CertifyKey: %v", err)
	}
	certifiedPub, err := VerifyKeyCertification(r.ca.PublicKey(), r.cert, res, antiReplay)
	if err != nil {
		t.Fatalf("VerifyKeyCertification: %v", err)
	}
	// The certified key really signs.
	digest := sha1.Sum([]byte("doc"))
	sig, err := r.cli.Sign(h, keyAuth, digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpm.VerifySHA1(certifiedPub, digest[:], sig); err != nil {
		t.Fatalf("certified key signature: %v", err)
	}
	// Wrong anti-replay refuses.
	var other [tpm.NonceSize]byte
	if _, err := VerifyKeyCertification(r.ca.PublicKey(), r.cert, res, other); err == nil {
		t.Fatal("certification accepted under wrong anti-replay")
	}
}

func TestAttestationRejectsForeignAIK(t *testing.T) {
	r1 := newRig(t, "f1")
	r2 := newRig(t, "f2")
	v0, _ := r1.cli.PCRRead(0)
	verifier := NewVerifier(r1.ca.PublicKey(), map[int][tpm.DigestSize]byte{0: v0})
	nonce, _ := verifier.Challenge()
	// Quote signed by rig2's AIK but presented with rig1's cert.
	q, err := r2.cli.Quote(r2.handle, aikAuth, nonce, tpm.NewPCRSelection(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.VerifyQuote(r1.cert, nonce, q); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("err = %v", err)
	}
}

// merkleBatchedSig hand-builds a signature in the retired XBQ1
// Merkle-batched form: digest as leaf 0 of a two-leaf batch, under a root
// signature that is valid for key. Leaves are H(0x00 ∥ count ∥ index ∥
// digest), the root is H(0x01 ∥ leaf0 ∥ leaf1), and the blob is "XBQ1" ∥
// hashLen ∥ count ∥ index ∥ 1 ∥ (dir 0 ∥ leaf1) ∥ B32(rootSig).
func merkleBatchedSig(t *testing.T, key *rsa.PrivateKey, hash crypto.Hash, digest []byte) []byte {
	t.Helper()
	leaf := func(index uint32, d []byte) []byte {
		h := hash.New()
		h.Write(tpm.NewWriter().U8(0).U32(2).U32(index).Raw(d).Bytes())
		return h.Sum(nil)
	}
	sibling := leaf(1, []byte("another quote in the batch"))
	root := hash.New()
	root.Write(tpm.NewWriter().U8(1).Raw(leaf(0, digest)).Raw(sibling).Bytes())
	rootSig, err := rsa.SignPKCS1v15(rand.Reader, key, hash, root.Sum(nil))
	if err != nil {
		t.Fatal(err)
	}
	return tpm.NewWriter().Raw([]byte("XBQ1")).U8(byte(hash.Size())).U32(2).U32(0).
		U8(1).U8(0).Raw(sibling).B32(rootSig).Bytes()
}

// TestVerifiersRefuseMerkleBatchedQuote checks that both quote verifiers
// accept only the plain RSASSA-PKCS1-v1_5 signature: a Merkle-batched blob
// over the same digest, though its root signature is valid under the key,
// is refused by the 1.2 Verifier (AIK certified by the CA) and by the 2.0
// tpm.VerifyQuote2.
func TestVerifiersRefuseMerkleBatchedQuote(t *testing.T) {
	aik, err := rsa.GenerateKey(rand.Reader, testBits)
	if err != nil {
		t.Fatal(err)
	}
	ek, err := rsa.GenerateKey(rand.Reader, testBits)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewPrivacyCA(testBits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Challenge(&ek.PublicKey, &aik.PublicKey); err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(&aik.PublicKey, ca.pending[sha1.Sum(tpm.MarshalPublicKey(&aik.PublicKey))])
	if err != nil {
		t.Fatal(err)
	}

	// TPM 1.2: TPM_Quote over one PCR.
	v := NewVerifier(ca.PublicKey(), nil)
	sel := tpm.NewPCRSelection(0)
	vals := [][tpm.DigestSize]byte{sha1.Sum([]byte("bios"))}
	comp := tpm.NewWriter()
	sel.Marshal(comp)
	comp.U32(tpm.DigestSize).Raw(vals[0][:])
	quote12 := func(sign func(digest []byte) []byte) error {
		nonce, err := v.Challenge()
		if err != nil {
			t.Fatal(err)
		}
		digest := tpm.QuoteInfoDigest(tpm.CompositeHash(sel, vals), nonce)
		return v.VerifyQuote(cert, nonce, &tpm.QuoteResult{Composite: comp.Bytes(), Signature: sign(digest)})
	}
	if err := quote12(func(d []byte) []byte {
		sig, err := rsa.SignPKCS1v15(rand.Reader, aik, crypto.SHA1, d)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}); err != nil {
		t.Fatalf("1.2: plain quote refused: %v", err)
	}
	if err := quote12(func(d []byte) []byte {
		return merkleBatchedSig(t, aik, crypto.SHA1, d)
	}); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("1.2: Merkle-batched quote: err = %v, want ErrBadQuote", err)
	}

	// TPM 2.0: TPM2_Quote over a TPMS_ATTEST.
	quoted := []byte("TPMS_ATTEST stand-in")
	digest := sha256.Sum256(quoted)
	plain, err := rsa.SignPKCS1v15(rand.Reader, aik, crypto.SHA256, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if err := tpm.VerifyQuote2(&aik.PublicKey, quoted, plain); err != nil {
		t.Fatalf("2.0: plain quote refused: %v", err)
	}
	if err := tpm.VerifyQuote2(&aik.PublicKey, quoted, merkleBatchedSig(t, aik, crypto.SHA256, digest[:])); err == nil {
		t.Fatal("2.0: Merkle-batched quote accepted")
	}
}
