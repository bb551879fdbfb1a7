package tpm

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
)

// TPM 2.0 attestation structures, parsed verifier-side. The 1.2 analog
// (TPM_QUOTE_INFO handling) lives in internal/attest; these primitives are
// exported here so both the attest package and remote verifiers that only
// hold the public key can check 2.0 quotes.

// Attest2 is a parsed TPMS_ATTEST of type TPM2_ST_ATTEST_QUOTE.
type Attest2 struct {
	// QualifiedSigner is the Name of the signing key (nameAlg ∥ digest).
	QualifiedSigner []byte
	// ExtraData echoes the caller's qualifyingData (anti-replay nonce).
	ExtraData []byte
	// Clock is the engine's clockInfo.clock at quote time (this engine
	// advances it with the command counter).
	Clock uint64
	// Selection lists the quoted (bank, bitmap) pairs in quote order.
	Selection []PCRSelection2
	// PCRDigest is SHA-256 over the concatenated selected register values.
	PCRDigest []byte
}

// PCRSelection2 is one bank's selection bitmap inside a quote.
type PCRSelection2 struct {
	Alg    uint16
	Bitmap [3]byte
}

// Indices expands the bitmap into PCR indices, ascending.
func (s PCRSelection2) Indices() []int {
	var out []int
	for bit := 0; bit < NumPCRs; bit++ {
		if s.Bitmap[bit/8]&(1<<(bit%8)) != 0 {
			out = append(out, bit)
		}
	}
	return out
}

// ErrBadAttest reports a malformed or non-quote TPMS_ATTEST.
var ErrBadAttest = errors.New("tpm2: malformed attestation structure")

// ParseAttest2 parses a TPMS_ATTEST produced by TPM2_Quote.
func ParseAttest2(quoted []byte) (*Attest2, error) {
	r := NewReader(quoted)
	if magic := r.U32(); magic != TPM2GeneratedValue {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadAttest, magic)
	}
	if typ := r.U16(); typ != TPM2STAttestQuote {
		return nil, fmt.Errorf("%w: type %#x, want quote", ErrBadAttest, typ)
	}
	a := &Attest2{
		QualifiedSigner: r.B16(),
		ExtraData:       r.B16(),
		Clock:           r.U64(),
	}
	r.U32() // resetCount
	r.U32() // restartCount
	r.U8()  // safe
	r.U64() // firmwareVersion
	count := r.U32()
	if r.Err() != nil || count > uint32(len(tpm2Banks)) {
		return nil, ErrBadAttest
	}
	for i := uint32(0); i < count; i++ {
		var s PCRSelection2
		s.Alg = r.U16()
		n := int(r.U8())
		bm := r.Raw(n)
		if r.Err() != nil || n > NumPCRs/8 {
			return nil, ErrBadAttest
		}
		copy(s.Bitmap[:], bm)
		a.Selection = append(a.Selection, s)
	}
	a.PCRDigest = r.B16()
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, ErrBadAttest
	}
	return a, nil
}

// VerifyQuote2 checks a TPM2_Quote signature over a raw TPMS_ATTEST: a
// plain RSASSA-PKCS1-v1_5/SHA-256 signature, the only form the engine
// emits.
func VerifyQuote2(pub *rsa.PublicKey, quoted, sig []byte) error {
	digest := sha256.Sum256(quoted)
	return rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest[:], sig)
}
