package tpm

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"testing"
)

// FuzzExecute throws arbitrary bytes at the command engine: it must always
// return a well-formed response (≥10 bytes, correct size field) and never
// panic. This is the guest-facing attack surface — a hostile frontend can
// put anything on the ring.
func FuzzExecute(f *testing.F) {
	eng, err := New(Config{RSABits: 512, Seed: []byte("fuzz")})
	if err != nil {
		f.Fatal(err)
	}
	cli := NewClient(DirectTransport{TPM: eng}, newDRBG([]byte("fc")))
	if err := cli.Startup(STClear); err != nil {
		f.Fatal(err)
	}
	// Seed with a valid command and interesting corruptions of it.
	valid := NewWriter()
	valid.U16(TagRQUCommand)
	valid.U32(14)
	valid.U32(OrdGetRandom)
	valid.U32(8)
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xC1})
	trunc := append([]byte(nil), valid.Bytes()...)
	f.Add(trunc[:9])
	huge := append([]byte(nil), valid.Bytes()...)
	huge[2] = 0xFF // size lies
	f.Add(huge)
	f.Fuzz(func(t *testing.T, cmd []byte) {
		resp := eng.Execute(cmd)
		if len(resp) < 10 {
			t.Fatalf("short response %x for %x", resp, cmd)
		}
		r := NewReader(resp)
		_ = r.U16()
		size := r.U32()
		if int(size) != len(resp) {
			t.Fatalf("response size field %d, actual %d", size, len(resp))
		}
	})
}

// FuzzRestoreState feeds arbitrary blobs to the state deserializer: it must
// reject gracefully or produce a TPM that round-trips, never panic.
func FuzzRestoreState(f *testing.F) {
	eng, err := New(Config{RSABits: 512, Seed: []byte("fuzz-state")})
	if err != nil {
		f.Fatal(err)
	}
	cli := NewClient(DirectTransport{TPM: eng}, nil)
	cli.Startup(STClear)
	good := eng.SaveState()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("XVTM"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, blob []byte) {
		revived, err := RestoreState(blob)
		if err != nil {
			return // rejection is fine
		}
		// Accepted blobs must yield a usable engine.
		out := revived.SaveState()
		if len(out) < len(stateMagic) || !bytes.HasPrefix(out, stateMagic) {
			t.Fatalf("revived engine saves malformed state")
		}
	})
}

// FuzzUnmarshalPublicKey covers the wire-key parser used on untrusted
// migration and attestation inputs.
func FuzzUnmarshalPublicKey(f *testing.F) {
	eng, _ := New(Config{RSABits: 512, Seed: []byte("fuzz-pub")})
	f.Add(MarshalPublicKey(&eng.ek.PublicKey))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		pub, err := UnmarshalPublicKey(b)
		if err == nil && (pub.N.Sign() <= 0 || pub.E == 0) {
			t.Fatal("accepted degenerate key")
		}
	})
}

// FuzzUnmarshalPrivateKey covers the private-key parser behind state
// restore, LoadKey2 and context load: it must refuse malformed blobs with
// ErrBadKey, and any blob it accepts must yield a key whose PKCS#1 v1.5
// SHA-1 signature verifies under its public half.
func FuzzUnmarshalPrivateKey(f *testing.F) {
	ek := testEK(f, "fuzz-priv")
	f.Add(marshalPrivateKey(ek))
	for _, c := range corruptKeyBlobs(ek) {
		f.Add(c.blob)
	}
	f.Add([]byte{})
	digest := sha1Sum([]byte("fuzz-priv"))
	f.Fuzz(func(t *testing.T, b []byte) {
		k, err := unmarshalPrivateKey(b)
		if err != nil {
			if !errors.Is(err, ErrBadKey) {
				t.Fatalf("rejection is not ErrBadKey: %v", err)
			}
			return
		}
		sig, err := rsa.SignPKCS1v15(nil, k, crypto.SHA1, digest)
		if err != nil {
			t.Fatalf("accepted key cannot sign: %v", err)
		}
		if err := rsa.VerifyPKCS1v15(&k.PublicKey, crypto.SHA1, digest, sig); err != nil {
			t.Fatalf("accepted key's signature does not verify: %v", err)
		}
	})
}

// FuzzBatchedQuoteParse keeps the name of the retired batched-signature
// decoder's fuzz target and now fuzzes what replaced it: both quote
// verifiers, fed arbitrary bytes as the signature. Neither may panic, and
// each accepts exactly one input, the plain RSASSA-PKCS1-v1_5 signature
// over its digest. Seeds include the shapes of the retired batched form
// (its "XBQ1" magic, alone and ahead of a valid signature).
func FuzzBatchedQuoteParse(f *testing.F) {
	key := testEK(f, "fuzz-quote-sig")
	digest1 := sha1Sum([]byte("fuzz-quote-1.2"))
	quoted2 := []byte("fuzz-quote-2.0")
	digest2 := sha256.Sum256(quoted2)
	sig1, err := rsa.SignPKCS1v15(nil, key, crypto.SHA1, digest1)
	if err != nil {
		f.Fatal(err)
	}
	sig2, err := rsa.SignPKCS1v15(nil, key, crypto.SHA256, digest2[:])
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), sig1...)
	flipped[0] ^= 1
	for _, seed := range [][]byte{
		sig1, sig2, flipped, sig1[:len(sig1)/2], append(append([]byte(nil), sig1...), 0),
		append([]byte("XBQ1"), sig1...), []byte("XBQ1"), {}, []byte("XBQ0junk"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sig []byte) {
		if VerifySHA1(&key.PublicKey, digest1, sig) == nil && !bytes.Equal(sig, sig1) {
			t.Fatalf("1.2 verifier accepted %x, not the plain signature", sig)
		}
		if VerifyQuote2(&key.PublicKey, quoted2, sig) == nil && !bytes.Equal(sig, sig2) {
			t.Fatalf("2.0 verifier accepted %x, not the plain signature", sig)
		}
	})
}

// overClaimedComposite is a 9-byte quote composite whose value-length field
// claims n PCR values it does not carry.
func overClaimedComposite(n uint32) []byte {
	w := NewWriter()
	NewPCRSelection(0).Marshal(w)
	w.U32(n * DigestSize)
	return w.Bytes()
}

// FuzzParseQuoteComposite covers the verifier-side parser of the composite
// a Quote response carries, which attestd runs on network bytes: every
// input either errors or yields values the input actually holds
// (len(vals)*20 ≤ len(input)), and hashing an accepted result never
// panics.
func FuzzParseQuoteComposite(f *testing.F) {
	_, cli := newOwnedTPM(f, "fuzz-composite")
	h, _ := loadSigningKey(f, cli)
	var nonce [NonceSize]byte
	q, err := cli.Quote(h, keyAuth, nonce, NewPCRSelection(0, 1, 10))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(q.Composite)
	f.Add(overClaimedComposite(1_000_000))
	f.Fuzz(func(t *testing.T, b []byte) {
		sel, vals, err := ParseQuoteComposite(b)
		if err != nil {
			return
		}
		if len(vals)*DigestSize > len(b) {
			t.Fatalf("%d-byte input yielded %d values", len(b), len(vals))
		}
		_ = CompositeHash(sel, vals)
	})
}
