package tpm

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha1"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// poolTPM builds an owned 1.2 engine whose signatures run through a signing
// pool, plus a client over it. The pool is closed with the test.
func poolTPM(t testing.TB, seed string, cfg SignPoolConfig) (*TPM, *Client, *SignPool) {
	t.Helper()
	pool := NewSignPool(cfg)
	t.Cleanup(pool.Close)
	eng, err := New(Config{RSABits: testBits, Seed: []byte(seed), Signer: pool})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli := NewClient(DirectTransport{TPM: eng}, newDRBG([]byte("client-"+seed)))
	if err := cli.Startup(STClear); err != nil {
		t.Fatalf("Startup: %v", err)
	}
	if _, err := cli.TakeOwnership(ownerAuth, srkAuth); err != nil {
		t.Fatalf("TakeOwnership: %v", err)
	}
	return eng, cli, pool
}

// loadSigningKey creates and loads a signing key, returning its handle and
// public key.
func loadSigningKey(t testing.TB, cli *Client) (uint32, []byte) {
	t.Helper()
	blob, err := cli.CreateWrapKey(KHSRK, srkAuth, keyAuth, KeyParams{
		Usage: KeyUsageSigning, Scheme: SSRSASSAPKCS1v15SHA1, Bits: testBits,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := cli.LoadKey2(KHSRK, srkAuth, blob)
	if err != nil {
		t.Fatal(err)
	}
	pubRSA, err := cli.GetPubKey(h, keyAuth)
	if err != nil {
		t.Fatal(err)
	}
	return h, MarshalPublicKey(pubRSA)
}

// TestMerkleBatchRoundTrip keeps the name of the retired Merkle-batch test
// and checks the one signature format that replaced it: jobs submitted
// back to back against one key come back from the pool byte-identical to
// the inline signature (RSASSA-PKCS1-v1_5 is deterministic), for both the
// 1.2 (SHA-1) and the 2.0 (SHA-256) digest.
func TestMerkleBatchRoundTrip(t *testing.T) {
	key := testSignKey(t)
	pool := NewSignPool(SignPoolConfig{Workers: 2})
	defer pool.Close()
	const n = 16
	for _, hash := range []crypto.Hash{crypto.SHA1, crypto.SHA256} {
		digests := make([][]byte, n)
		tickets := make([]*SignTicket, n)
		for i := range digests {
			h := hash.New()
			fmt.Fprintf(h, "digest-%d", i)
			digests[i] = h.Sum(nil)
			tickets[i] = pool.Submit(SignRequest{
				Key: key, Hash: hash, Digest: digests[i], Rng: newDRBG([]byte(fmt.Sprintf("rng-%d", i))),
			})
		}
		for i, tk := range tickets {
			res := tk.Wait()
			if res.Err != nil {
				t.Fatalf("%v job %d: %v", hash, i, res.Err)
			}
			want, err := rsa.SignPKCS1v15(nil, key, hash, digests[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Sig, want) {
				t.Fatalf("%v job %d: pooled signature differs from the inline one", hash, i)
			}
		}
	}
	if st := pool.Stats(); st.SingleSigns != 2*n || st.Completed != 2*n || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// testSignKey returns a deterministic RSA key for codec tests.
func testSignKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	key, err := rsa.GenerateKey(newDRBG([]byte("codec-key")), testBits)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestBatchedVsSingleQuoteEquivalence is the equivalence matrix: the same
// PCR state quoted through an inline engine, through a pooled engine, and
// by 6 concurrent clients against one key of that pooled engine. Every
// signature must be plain (modulus-sized RSASSA-PKCS1-v1_5) and verify, and
// every tampered form must be refused: each flipped signature byte, a
// wrong nonce, and another quote's signature.
func TestBatchedVsSingleQuoteEquivalence(t *testing.T) {
	var nonce [NonceSize]byte
	copy(nonce[:], sha1Sum([]byte("equivalence-nonce")))
	sel := NewPCRSelection(0, 1)

	type result struct {
		name  string
		pub   []byte
		nonce [NonceSize]byte
		q     *QuoteResult
	}
	var results []result
	// provision loads a signing key and extends the quoted PCRs to the
	// shared state.
	provision := func(cli *Client) (uint32, []byte) {
		h, pub := loadSigningKey(t, cli)
		cli.Extend(0, sha1.Sum([]byte("bios")))
		cli.Extend(1, sha1.Sum([]byte("loader")))
		return h, pub
	}

	// Inline (no pool): the seed path.
	{
		_, cli := newOwnedTPM(t, "equiv")
		h, pub := provision(cli)
		q, err := cli.Quote(h, keyAuth, nonce, sel)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, result{"inline", pub, nonce, q})
	}
	// Pooled: one sequential quote, then 6 concurrent ones against the same
	// key (distinct nonces, so distinct digests).
	{
		eng, cli, _ := poolTPM(t, "equiv", SignPoolConfig{Workers: 2})
		h, pub := provision(cli)
		q, err := cli.Quote(h, keyAuth, nonce, sel)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, result{"pooled", pub, nonce, q})

		const nConcurrent = 6
		qs := make([]*QuoteResult, nConcurrent)
		errs := make([]error, nConcurrent)
		nonces := make([][NonceSize]byte, nConcurrent)
		var wg sync.WaitGroup
		for i := 0; i < nConcurrent; i++ {
			copy(nonces[i][:], sha1Sum([]byte(fmt.Sprintf("cq-nonce-%d", i))))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := NewClient(DirectTransport{TPM: eng}, newDRBG([]byte(fmt.Sprintf("qc-%d", i))))
				qs[i], errs[i] = c.Quote(h, keyAuth, nonces[i], sel)
			}(i)
		}
		wg.Wait()
		for i := 0; i < nConcurrent; i++ {
			if errs[i] != nil {
				t.Fatalf("concurrent quote %d: %v", i, errs[i])
			}
			results = append(results, result{fmt.Sprintf("concurrent-%d", i), pub, nonces[i], qs[i]})
		}
	}

	var wrongNonce [NonceSize]byte
	for i, r := range results {
		pub, err := UnmarshalPublicKey(r.pub)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.q.Signature) != pub.Size() {
			t.Fatalf("%s: %d-byte signature is not a plain %d-byte RSASSA signature",
				r.name, len(r.q.Signature), pub.Size())
		}
		gotSel, vals, err := ParseQuoteComposite(r.q.Composite)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		digest := QuoteInfoDigest(CompositeHash(gotSel, vals), r.nonce)
		if err := VerifySHA1(pub, digest, r.q.Signature); err != nil {
			t.Fatalf("%s: quote did not verify: %v", r.name, err)
		}
		bad := QuoteInfoDigest(CompositeHash(gotSel, vals), wrongNonce)
		if err := VerifySHA1(pub, bad, r.q.Signature); err == nil {
			t.Fatalf("%s: quote verified under the wrong nonce", r.name)
		}
		for b := range r.q.Signature {
			mut := append([]byte(nil), r.q.Signature...)
			mut[b] ^= 0x01
			if err := VerifySHA1(pub, digest, mut); err == nil {
				t.Fatalf("%s: tampered byte %d of %d still verified", r.name, b, len(mut))
			}
		}
		// Cross-quote substitution: the next quote by the same key under a
		// different nonce must not verify this quote's digest.
		if i+1 < len(results) && bytes.Equal(results[i+1].pub, r.pub) && results[i+1].nonce != r.nonce {
			if err := VerifySHA1(pub, digest, results[i+1].q.Signature); err == nil {
				t.Fatalf("%s: another quote's signature verified this digest", r.name)
			}
		}
	}
}

// TestDeferredSignAndCertifyMatchInline checks the non-quote signing
// ordinals through the pool: pooled Sign and CertifyKey must verify under
// the same helpers the inline path satisfies, and pooled signatures are
// deterministic for a fixed key and digest (RSASSA-PKCS1-v1_5 does not
// depend on the rng). Keys cannot be compared across engines even with
// equal seeds: rsa.GenerateKey's MaybeReadByte defense makes keygen
// consume a nondeterministic number of DRBG bytes.
func TestDeferredSignAndCertifyMatchInline(t *testing.T) {
	_, cliB, _ := poolTPM(t, "defer-sig", SignPoolConfig{Workers: 1})
	hB, pubB := loadSigningKey(t, cliB)

	var digest [DigestSize]byte
	copy(digest[:], sha1Sum([]byte("to-sign")))
	sigB, err := cliB.Sign(hB, keyAuth, digest)
	if err != nil {
		t.Fatalf("pooled Sign: %v", err)
	}
	sig2, err := cliB.Sign(hB, keyAuth, digest)
	if err != nil {
		t.Fatalf("pooled Sign (repeat): %v", err)
	}
	if !bytes.Equal(sigB, sig2) {
		t.Fatal("pooled Sign is not deterministic for a fixed key and digest")
	}
	pub, err := UnmarshalPublicKey(pubB)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySHA1(pub, digest[:], sigB); err != nil {
		t.Fatalf("pooled Sign verify: %v", err)
	}

	var antiReplay [NonceSize]byte
	copy(antiReplay[:], sha1Sum([]byte("certify-nonce")))
	ck, err := cliB.CertifyKey(hB, keyAuth, hB, keyAuth, antiReplay)
	if err != nil {
		t.Fatalf("pooled CertifyKey: %v", err)
	}
	if err := VerifySHA1(pub, CertifyInfoDigest(ck.Usage, ck.Scheme, ck.PubKey, antiReplay), ck.Signature); err != nil {
		t.Fatalf("pooled CertifyKey verify: %v", err)
	}
}

// TestTPM2DeferredQuoteVerifies drives concurrent 2.0 quotes through the
// pool and checks VerifyQuote2 accepts each plain signature and refuses a
// tampered attest.
func TestTPM2DeferredQuoteVerifies(t *testing.T) {
	pool := NewSignPool(SignPoolConfig{Workers: 2})
	t.Cleanup(pool.Close)
	eng, err := New2(Config{RSABits: 512, Seed: []byte("tpm2-pool"), Signer: pool})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient2(DirectTransport{TPM: eng}, nil)
	if err := c.Startup(TPM2SUClear); err != nil {
		t.Fatal(err)
	}
	if err := c.Extend(3, []byte("evidence")); err != nil {
		t.Fatal(err)
	}
	pub, err := c.ReadPublic()
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	type out struct {
		quoted, sig []byte
		err         error
	}
	outs := make([]out, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc := NewClient2(DirectTransport{TPM: eng}, nil)
			q, s, err := cc.Quote([]byte(fmt.Sprintf("nonce-%d", i)), []int{3})
			outs[i] = out{q, s, err}
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("quote %d: %v", i, o.err)
		}
		if len(o.sig) != pub.Size() {
			t.Fatalf("quote %d: %d-byte signature is not a plain RSASSA signature", i, len(o.sig))
		}
		if err := VerifyQuote2(pub, o.quoted, o.sig); err != nil {
			t.Fatalf("quote %d verify: %v", i, err)
		}
		bad := append([]byte(nil), o.quoted...)
		bad[len(bad)-1] ^= 1
		if err := VerifyQuote2(pub, bad, o.sig); err == nil {
			t.Fatalf("quote %d: tampered attest verified", i)
		}
	}
}

// TestSignPoolShutdownDrains queues more jobs than the pool has workers and
// closes it: every ticket must complete with a valid signature — shutdown
// loses no responses — and later submissions fail fast.
func TestSignPoolShutdownDrains(t *testing.T) {
	key := testSignKey(t)
	pool := NewSignPool(SignPoolConfig{Workers: 2})
	var tickets []*SignTicket
	var digests [][]byte
	for i := 0; i < 20; i++ {
		d := sha1Sum([]byte(fmt.Sprintf("drain-%d", i)))
		digests = append(digests, d)
		tickets = append(tickets, pool.Submit(SignRequest{Key: key, Hash: crypto.SHA1, Digest: d}))
	}
	pool.Close()
	for i, tk := range tickets {
		res := tk.Wait()
		if res.Err != nil {
			t.Fatalf("ticket %d: %v", i, res.Err)
		}
		if err := VerifySHA1(&key.PublicKey, digests[i], res.Sig); err != nil {
			t.Fatalf("ticket %d: drained signature invalid: %v", i, err)
		}
	}
	st := pool.Stats()
	if st.Completed != st.Submitted || st.Completed != 20 {
		t.Fatalf("stats: %+v", st)
	}
	// Submissions after Close fail fast with the sentinel, losing nothing.
	tk := pool.Submit(SignRequest{Key: key, Hash: crypto.SHA1, Digest: digests[0]})
	if res := tk.Wait(); !errors.Is(res.Err, ErrSignPoolClosed) {
		t.Fatalf("post-close submit: err = %v, want ErrSignPoolClosed", res.Err)
	}
}

func TestKeyPool(t *testing.T) {
	pool := NewKeyPool(KeyPoolConfig{Bits: testBits, Size: 4, Seed: []byte("kp")})
	defer pool.Close()
	// Wrong modulus size always misses.
	if _, ok := pool.Get(1024); ok {
		t.Fatal("pool served a key of the wrong size")
	}
	// The filler replenishes: repeated gets eventually hit.
	deadline := time.Now().Add(10 * time.Second)
	hits := 0
	for hits < 6 && time.Now().Before(deadline) {
		if k, ok := pool.Get(testBits); ok {
			if err := k.Validate(); err != nil {
				t.Fatal(err)
			}
			hits++
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if hits < 6 {
		t.Fatalf("only %d pool hits before deadline", hits)
	}
	st := pool.Stats()
	if st.Generated < 6 || st.Hits != 6 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestKeyPoolServesEngineCreation checks the engine integration points: EK
// from the pool at New, and generateRSA (TakeOwnership's SRK) from the pool.
func TestKeyPoolServesEngineCreation(t *testing.T) {
	pool := NewKeyPool(KeyPoolConfig{Bits: testBits, Size: 8, Seed: []byte("kp-engine")})
	defer pool.Close()
	// Give the filler a head start so the creations below actually hit.
	deadline := time.Now().Add(10 * time.Second)
	for pool.Stats().Buffered < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	eng, err := New(Config{RSABits: testBits, Seed: []byte("kp-eng"), KeyPool: pool})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(DirectTransport{TPM: eng}, newDRBG([]byte("kp-cli")))
	if err := cli.Startup(STClear); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.TakeOwnership(ownerAuth, srkAuth); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Hits < 2 {
		t.Fatalf("engine creation + ownership hit the pool %d times, want ≥ 2", pool.Stats().Hits)
	}
	// The pooled-key engine is fully functional end to end.
	if _, err := cli.GetRandom(8); err != nil {
		t.Fatal(err)
	}
}
