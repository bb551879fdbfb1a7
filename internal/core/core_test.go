package core

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

const testBits = 512

func authOf(s string) (a [tpm.AuthSize]byte) {
	h := sha1.Sum([]byte(s))
	copy(a[:], h[:])
	return a
}

var (
	hwOwner = authOf("hw-owner")
	hwSRK   = authOf("hw-srk")
)

// newPlatform builds a hardware TPM and provisioned platform keys.
func newPlatform(t testing.TB, seed string) (*tpm.Client, *PlatformKeys) {
	t.Helper()
	hw, err := tpm.New(tpm.Config{RSABits: testBits, Seed: []byte(seed)})
	if err != nil {
		t.Fatal(err)
	}
	cli := tpm.NewClient(tpm.DirectTransport{TPM: hw}, nil)
	if err := cli.Startup(tpm.STClear); err != nil {
		t.Fatal(err)
	}
	keys, err := SetupPlatformKeys(cli, []byte("platform-"+seed), hwOwner, hwSRK)
	if err != nil {
		t.Fatalf("SetupPlatformKeys: %v", err)
	}
	return cli, keys
}

func launchOf(s string) xen.LaunchDigest {
	return xen.MeasureLaunch([]byte(s), nil, "")
}

func testInstance(id vtpm.InstanceID, launch string) vtpm.InstanceInfo {
	return vtpm.InstanceInfo{ID: id, BoundDom: 5, BoundLaunch: launchOf(launch)}
}

// sampleCmd builds a minimal GetRandom command for channel tests.
func sampleCmd() []byte {
	w := tpm.NewWriter()
	w.U16(tpm.TagRQUCommand)
	w.U32(14)
	w.U32(tpm.OrdGetRandom)
	w.U32(16)
	return w.Bytes()
}

// --- Policy ---

func TestPolicyDefaultDeny(t *testing.T) {
	p := NewPolicy()
	if p.Evaluate(tpm.Profile12, launchOf("g"), 1, tpm.OrdExtend) != Deny {
		t.Fatal("empty policy allowed a command")
	}
}

func TestPolicyFirstMatchOrder(t *testing.T) {
	id := launchOf("g")
	p := NewPolicy(
		Rule{Identity: id, Instance: 1, Ordinal: tpm.OrdOwnerClear, Effect: Deny},
		Rule{Identity: id, Instance: 1, Group: GroupOwnership, Effect: Allow},
	)
	if p.Evaluate(tpm.Profile12, id, 1, tpm.OrdOwnerClear) != Deny {
		t.Fatal("specific deny did not shadow group allow")
	}
	if p.Evaluate(tpm.Profile12, id, 1, tpm.OrdTakeOwnership) != Allow {
		t.Fatal("group allow not applied")
	}
}

func TestPolicyWildcards(t *testing.T) {
	p := NewPolicy(Rule{Group: GroupRandom, Effect: Allow}) // any identity, any instance
	if p.Evaluate(tpm.Profile12, launchOf("a"), 7, tpm.OrdGetRandom) != Allow {
		t.Fatal("wildcard rule did not match")
	}
	if p.Evaluate(tpm.Profile12, launchOf("a"), 7, tpm.OrdExtend) != Deny {
		t.Fatal("wildcard rule leaked to other group")
	}
}

func TestPolicyIdentityScoping(t *testing.T) {
	idA, idB := launchOf("a"), launchOf("b")
	p := NewPolicy(DefaultGuestPolicy(idA, 1)...)
	if p.Evaluate(tpm.Profile12, idA, 1, tpm.OrdSeal) != Allow {
		t.Fatal("owner denied")
	}
	if p.Evaluate(tpm.Profile12, idB, 1, tpm.OrdSeal) != Deny {
		t.Fatal("foreign identity allowed on instance 1")
	}
	if p.Evaluate(tpm.Profile12, idA, 2, tpm.OrdSeal) != Deny {
		t.Fatal("owner allowed on foreign instance")
	}
}

func TestPolicyCacheHitsAndToggle(t *testing.T) {
	id := launchOf("g")
	p := NewPolicy(DefaultGuestPolicy(id, 1)...)
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdExtend)
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdExtend)
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdExtend)
	hits, misses := p.CacheStats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	p.SetCache(false)
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdExtend)
	p.Evaluate(tpm.Profile12, id, 1, tpm.OrdExtend)
	hits, misses = p.CacheStats()
	if hits != 0 || misses != 2 {
		t.Fatalf("uncached: hits=%d misses=%d", hits, misses)
	}
}

func TestPolicyPrependOverrides(t *testing.T) {
	id := launchOf("g")
	p := NewPolicy(DefaultGuestPolicy(id, 1)...)
	if p.Evaluate(tpm.Profile12, id, 1, tpm.OrdOwnerClear) != Allow {
		t.Fatal("precondition")
	}
	p.Prepend(Rule{Identity: id, Instance: 1, Ordinal: tpm.OrdOwnerClear, Effect: Deny})
	if p.Evaluate(tpm.Profile12, id, 1, tpm.OrdOwnerClear) != Deny {
		t.Fatal("prepended deny ignored")
	}
}

func TestGroupCoverage(t *testing.T) {
	// Every implemented ordinal the guests use must map to a named group.
	for _, o := range []uint32{
		tpm.OrdExtend, tpm.OrdPCRRead, tpm.OrdQuote, tpm.OrdSeal, tpm.OrdUnseal,
		tpm.OrdCreateWrapKey, tpm.OrdLoadKey2, tpm.OrdSign, tpm.OrdGetRandom,
		tpm.OrdTakeOwnership, tpm.OrdNVWriteValue, tpm.OrdOIAP, tpm.OrdOSAP,
		tpm.OrdUnBind, tpm.OrdMakeIdentity,
	} {
		if g := GroupOf(tpm.Profile12, o); g == "" {
			t.Errorf("ordinal %#x has no group", o)
		}
	}
	// And every implemented 2.0 command code maps under the 2.0 table.
	for _, c := range []uint32{
		tpm.TPM2CCStartup, tpm.TPM2CCShutdown, tpm.TPM2CCSelfTest,
		tpm.TPM2CCGetTestResult, tpm.TPM2CCGetCapability, tpm.TPM2CCStartAuthSession,
		tpm.TPM2CCFlushContext, tpm.TPM2CCReadPublic, tpm.TPM2CCPCRExtend,
		tpm.TPM2CCPCRRead, tpm.TPM2CCPCRReset, tpm.TPM2CCQuote,
		tpm.TPM2CCGetRandom, tpm.TPM2CCStirRandom,
	} {
		if g := GroupOf(tpm.Profile20, c); g == "" {
			t.Errorf("2.0 command code %#x has no group", c)
		}
	}
}

// --- Channel ---

func TestChannelRoundTrip(t *testing.T) {
	var key ChannelKey
	copy(key[:], deriveBytes([]byte("k"), "test"))
	codec := NewGuestCodec(key)
	srv := &serverChannel{key: key}
	cmd := sampleCmd()
	payload, reqSeq, err := codec.EncodeRequest(nil, cmd)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(payload, cmd[6:]) {
		t.Fatal("channel payload leaks command plaintext")
	}
	got, seq, err := srv.open(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cmd) {
		t.Fatalf("server decoded %x", got)
	}
	resp := []byte("response-bytes")
	sealed, err := srv.seal(resp, seq)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.DecodeResponse(nil, sealed, reqSeq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, resp) {
		t.Fatalf("client decoded %q", back)
	}
}

func TestChannelRejectsWrongKey(t *testing.T) {
	var k1, k2 ChannelKey
	copy(k1[:], deriveBytes([]byte("a"), "k"))
	copy(k2[:], deriveBytes([]byte("b"), "k"))
	codec := NewGuestCodec(k1)
	srv := &serverChannel{key: k2}
	payload, _, _ := codec.EncodeRequest(nil, sampleCmd())
	if _, _, err := srv.open(payload); !errors.Is(err, vtpm.ErrBadChannel) {
		t.Fatalf("err = %v", err)
	}
}

func TestChannelRejectsReplay(t *testing.T) {
	var key ChannelKey
	copy(key[:], deriveBytes([]byte("k"), "t"))
	codec := NewGuestCodec(key)
	srv := &serverChannel{key: key}
	payload, _, _ := codec.EncodeRequest(nil, sampleCmd())
	if _, _, err := srv.open(payload); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.open(payload); !errors.Is(err, vtpm.ErrReplay) {
		t.Fatalf("replay err = %v", err)
	}
}

func TestChannelRejectsTamper(t *testing.T) {
	var key ChannelKey
	copy(key[:], deriveBytes([]byte("k"), "t"))
	codec := NewGuestCodec(key)
	srv := &serverChannel{key: key}
	payload, _, _ := codec.EncodeRequest(nil, sampleCmd())
	payload[len(payload)/2] ^= 0x01
	if _, _, err := srv.open(payload); !errors.Is(err, vtpm.ErrBadChannel) {
		t.Fatalf("tamper err = %v", err)
	}
}

func TestChannelRejectsReflection(t *testing.T) {
	// A response envelope replayed as a request must be refused.
	var key ChannelKey
	copy(key[:], deriveBytes([]byte("k"), "t"))
	srv := &serverChannel{key: key}
	sealed, _ := sealEnvelope(key, chanDirResponse, 9, []byte("x"))
	if _, _, err := srv.open(sealed); !errors.Is(err, vtpm.ErrBadChannel) {
		t.Fatalf("reflection err = %v", err)
	}
}

func TestChannelResponseSeqBinding(t *testing.T) {
	var key ChannelKey
	copy(key[:], deriveBytes([]byte("k"), "t"))
	codec := NewGuestCodec(key)
	srv := &serverChannel{key: key}
	p1, _, _ := codec.EncodeRequest(nil, sampleCmd())
	_, seq1, _ := srv.open(p1)
	p2, seq2, _ := codec.EncodeRequest(nil, sampleCmd())
	if _, _, err := srv.open(p2); err != nil {
		t.Fatal(err)
	}
	// Response for the stale seq must not decode as the current response.
	stale, _ := srv.seal([]byte("old"), seq1)
	if _, err := codec.DecodeResponse(nil, stale, seq2); err == nil {
		t.Fatal("stale response accepted")
	}
}

func TestChannelPropertyRoundTrip(t *testing.T) {
	var key ChannelKey
	copy(key[:], deriveBytes([]byte("k"), "prop"))
	codec := NewGuestCodec(key)
	srv := &serverChannel{key: key}
	f := func(msg []byte) bool {
		p, reqSeq, err := codec.EncodeRequest(nil, msg)
		if err != nil {
			return false
		}
		got, seq, err := srv.open(p)
		if err != nil || !bytes.Equal(got, msg) {
			return false
		}
		sealed, err := srv.seal(got, seq)
		if err != nil {
			return false
		}
		back, err := codec.DecodeResponse(nil, sealed, reqSeq)
		return err == nil && bytes.Equal(back, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- State envelopes ---

func TestStateEnvelopeRoundTripAndTamper(t *testing.T) {
	key := deriveBytes([]byte("secret"), "state")
	f := func(state []byte) bool {
		env, err := stateSeal(key, state)
		if err != nil {
			return false
		}
		got, err := stateOpen(key, env)
		if err != nil || !bytes.Equal(got, state) {
			return false
		}
		if len(state) > 8 && bytes.Contains(env, state) {
			return false
		}
		env[len(env)-1] ^= 0xFF
		_, err = stateOpen(key, env)
		return errors.Is(err, vtpm.ErrStateSealed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStateEnvelopeWrongKey(t *testing.T) {
	env, err := stateSeal(deriveBytes([]byte("a"), "k"), []byte("state"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stateOpen(deriveBytes([]byte("b"), "k"), env); !errors.Is(err, vtpm.ErrStateSealed) {
		t.Fatalf("err = %v", err)
	}
}

// --- Platform keys ---

func TestPlatformKeysDerivationStable(t *testing.T) {
	_, keys := newPlatform(t, "p1")
	a := keys.InstanceKey(7)
	b := keys.InstanceKey(7)
	c := keys.InstanceKey(8)
	if !bytes.Equal(a, b) {
		t.Fatal("instance key not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Fatal("distinct instances share a key")
	}
	k1 := keys.ChannelKeyFor(1, launchOf("g1"))
	k2 := keys.ChannelKeyFor(1, launchOf("g2"))
	k3 := keys.ChannelKeyFor(2, launchOf("g1"))
	if k1 == k2 || k1 == k3 {
		t.Fatal("channel keys collide across identities or instances")
	}
}

func TestPlatformReopenUnsealsMaster(t *testing.T) {
	cli, keys := newPlatform(t, "p2")
	re, err := ReopenPlatformKeys(cli, keys.SealedMaster(), keys.BindBlob(), hwOwner, hwSRK)
	if err != nil {
		t.Fatalf("ReopenPlatformKeys: %v", err)
	}
	if !bytes.Equal(re.InstanceKey(3), keys.InstanceKey(3)) {
		t.Fatal("reopened platform derives different keys")
	}
	if re.MigrationPub() == nil || re.MigrationPub().N.Cmp(keys.MigrationPub().N) != 0 {
		t.Fatal("bind key lost across reopen")
	}
}

func TestPlatformReopenFailsAfterBootTamper(t *testing.T) {
	cli, keys := newPlatform(t, "p3")
	// A different boot: extend a platform PCR again.
	if _, err := cli.Extend(0, sha1.Sum([]byte("evil-bootloader"))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReopenPlatformKeys(cli, keys.SealedMaster(), keys.BindBlob(), hwOwner, hwSRK); err == nil {
		t.Fatal("master unsealed under tampered boot measurements")
	}
}

// hwCommands reads the executed-command count of the hardware TPM behind cli.
func hwCommands(cli *tpm.Client) uint64 {
	return cli.Transport().(tpm.DirectTransport).TPM.CommandCount()
}

// loadedKeys reads how many keys the hardware TPM behind cli holds loaded.
func loadedKeys(t testing.TB, cli *tpm.Client) uint32 {
	t.Helper()
	n, err := cli.LoadedKeyCount()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// bindTo OAEP-encrypts a 16-byte KEK derived from label to keys' bind key.
func bindTo(t testing.TB, keys *PlatformKeys, label string) (kek, enc []byte) {
	t.Helper()
	kek = deriveBytes([]byte("kek"), label)[:16]
	enc, err := tpm.BindEncrypt(nil, keys.MigrationPub(), kek)
	if err != nil {
		t.Fatal(err)
	}
	return kek, enc
}

// TestMigrationKekUnbind: the bind key stays loaded, so every unbind is
// exactly one OIAP and one TPM_UnBind — no LoadKey2 or FlushSpecific per
// call — and the hardware TPM holds exactly that one key across unbinds and
// across a reopen.
func TestMigrationKekUnbind(t *testing.T) {
	cli, keys := newPlatform(t, "p4")
	kek, enc := bindTo(t, keys, "x")
	unbind100 := func(pk *PlatformKeys) {
		t.Helper()
		if n := loadedKeys(t, cli); n != 1 {
			t.Fatalf("%d keys loaded before unbinding, want 1", n)
		}
		for i := 0; i < 100; i++ {
			before := hwCommands(cli)
			got, err := pk.UnbindMigrationKek(enc)
			if err != nil {
				t.Fatalf("UnbindMigrationKek %d: %v", i, err)
			}
			if !bytes.Equal(got, kek) {
				t.Fatalf("unbind %d: kek mismatch", i)
			}
			if n := hwCommands(cli) - before; n != 2 {
				t.Fatalf("unbind %d cost %d hardware commands, want 2 (OIAP, UnBind)", i, n)
			}
		}
		if n := loadedKeys(t, cli); n != 1 {
			t.Fatalf("%d keys loaded after 100 unbinds, want 1", n)
		}
	}
	unbind100(keys)
	// A manager restart: the old keys are closed, the reopened ones load
	// the same bind key again.
	if err := keys.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := ReopenPlatformKeys(cli, keys.SealedMaster(), keys.BindBlob(), hwOwner, hwSRK)
	if err != nil {
		t.Fatalf("ReopenPlatformKeys: %v", err)
	}
	unbind100(re)
}

// TestBindKeyConcurrentUnbind: many goroutines share the one resident key.
func TestBindKeyConcurrentUnbind(t *testing.T) {
	cli, keys := newPlatform(t, "concurrent")
	const workers = 16
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		kek, enc := bindTo(t, keys, fmt.Sprint("concurrent-", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := keys.UnbindMigrationKek(enc)
				if err == nil && !bytes.Equal(got, kek) {
					err = errors.New("kek mismatch")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent unbind: %v", err)
	}
	if n := loadedKeys(t, cli); n != 1 {
		t.Fatalf("%d keys loaded after concurrent unbinds, want 1", n)
	}
}

// TestPlatformKeysClose: unbinds racing Close either open the KEK or fail,
// none reaches another key; Close flushes the bind key, a second Close is a
// no-op, and an unbind afterwards fails.
func TestPlatformKeysClose(t *testing.T) {
	cli, keys := newPlatform(t, "close")
	kek, enc := bindTo(t, keys, "close")
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if got, err := keys.UnbindMigrationKek(enc); err == nil && !bytes.Equal(got, kek) {
					errs <- errors.New("kek mismatch")
					return
				}
			}
		}()
	}
	if err := keys.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("unbind racing Close: %v", err)
	}
	if n := loadedKeys(t, cli); n != 0 {
		t.Fatalf("%d keys loaded after Close, want 0", n)
	}
	if err := keys.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := keys.UnbindMigrationKek(enc); err == nil {
		t.Fatal("unbind after Close succeeded")
	}
	if n := loadedKeys(t, cli); n != 0 {
		t.Fatalf("%d keys loaded after a post-Close unbind, want 0", n)
	}
}

// --- Guards ---

func newImproved(t testing.TB, seed string) (*ImprovedGuard, *PlatformKeys) {
	t.Helper()
	_, keys := newPlatform(t, seed)
	return NewImprovedGuard(keys, NewPolicy()), keys
}

func TestImprovedAdmitHappyPath(t *testing.T) {
	g, _ := newImproved(t, "i1")
	inst := testInstance(1, "guest")
	g.Policy().Append(DefaultGuestPolicy(inst.BoundLaunch, inst.ID)...)
	codec, err := g.EncoderFor(inst)
	if err != nil {
		t.Fatal(err)
	}
	payload, reqSeq, _ := codec.EncodeRequest(nil, sampleCmd())
	cmd, finish, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, payload)
	if err != nil {
		t.Fatalf("AdmitCommand: %v", err)
	}
	if !bytes.Equal(cmd, sampleCmd()) {
		t.Fatal("admitted command differs")
	}
	sealed, err := finish([]byte("resp"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.DecodeResponse(nil, sealed, reqSeq)
	if err != nil || string(back) != "resp" {
		t.Fatalf("response: %v %q", err, back)
	}
}

func TestImprovedRejectsSpoofedPayload(t *testing.T) {
	g, _ := newImproved(t, "i2")
	inst := testInstance(1, "victim")
	g.Policy().Append(DefaultGuestPolicy(inst.BoundLaunch, inst.ID)...)
	if _, err := g.EncoderFor(inst); err != nil {
		t.Fatal(err)
	}
	// Attacker (dom0 code) crafts a raw command claiming the victim's
	// identity — it has no channel key.
	if _, _, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, sampleCmd()); !errors.Is(err, vtpm.ErrBadChannel) {
		t.Fatalf("spoof err = %v", err)
	}
	// Even with a self-made codec under a guessed key.
	var wrong ChannelKey
	badCodec := NewGuestCodec(wrong)
	payload, _, _ := badCodec.EncodeRequest(nil, sampleCmd())
	if _, _, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, payload); !errors.Is(err, vtpm.ErrBadChannel) {
		t.Fatalf("wrong-key err = %v", err)
	}
}

func TestImprovedPolicyDenies(t *testing.T) {
	g, _ := newImproved(t, "i3")
	inst := testInstance(1, "guest")
	// Allow only PCR group.
	g.Policy().Append(Rule{Identity: inst.BoundLaunch, Instance: inst.ID, Group: GroupPCR, Effect: Allow})
	codec, _ := g.EncoderFor(inst)
	payload, _, _ := codec.EncodeRequest(nil, sampleCmd()) // GetRandom: not PCR group
	if _, _, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, payload); !errors.Is(err, vtpm.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
	// Audit captured both the denial and nothing else odd.
	if g.Audit().Len() != 1 {
		t.Fatalf("audit len = %d", g.Audit().Len())
	}
	if err := g.Audit().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestImprovedStateEnvelopeBinding(t *testing.T) {
	g, _ := newImproved(t, "i4")
	inst := testInstance(3, "guest")
	state := []byte("vtpm-state-bytes-including-EK")
	blob, err := g.ProtectState(inst, nil, state)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, state) {
		t.Fatal("protected state contains plaintext")
	}
	got, err := g.RecoverState(inst, blob)
	if err != nil || !bytes.Equal(got, state) {
		t.Fatalf("recover: %v", err)
	}
	// Another instance's key must not open it.
	other := testInstance(4, "guest")
	if _, err := g.RecoverState(other, blob); !errors.Is(err, vtpm.ErrStateSealed) {
		t.Fatalf("cross-instance recover err = %v", err)
	}
}

func TestImprovedExportImportAcrossHosts(t *testing.T) {
	gSrc, _ := newImproved(t, "src-host")
	gDst, _ := newImproved(t, "dst-host")
	inst := testInstance(2, "traveler")
	state := []byte("instance state to migrate")
	env, err := gSrc.ExportState(inst, state, gDst.MigrationIdentity())
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}
	if bytes.Contains(env, state) {
		t.Fatal("migration envelope contains plaintext")
	}
	got, err := gDst.ImportState(env)
	if err != nil || !bytes.Equal(got, state) {
		t.Fatalf("ImportState: %v", err)
	}
	// A third host cannot open it.
	gEve, _ := newImproved(t, "eve-host")
	if _, err := gEve.ImportState(env); err == nil {
		t.Fatal("third host imported the envelope")
	}
}

// TestImprovedImportRefusesTamperedKek: a migration envelope whose
// encrypted KEK was altered in transit is refused, and the refusal leaves
// the resident bind key loaded for the next, honest import.
func TestImprovedImportRefusesTamperedKek(t *testing.T) {
	gSrc, _ := newImproved(t, "tamper-src")
	cli, dstKeys := newPlatform(t, "tamper-dst")
	gDst := NewImprovedGuard(dstKeys, NewPolicy())
	state := []byte("instance state to migrate")
	env, err := gSrc.ExportState(testInstance(2, "traveler"), state, gDst.MigrationIdentity())
	if err != nil {
		t.Fatal(err)
	}
	encKek := tpm.NewReader(env).B32() // the envelope opens with B32(encKek)
	bad := append([]byte(nil), env...)
	bad[4+len(encKek)/2] ^= 0x01
	if _, err := gDst.ImportState(bad); !errors.Is(err, vtpm.ErrStateSealed) {
		t.Fatalf("tampered KEK: err = %v, want ErrStateSealed", err)
	}
	if n := loadedKeys(t, cli); n != 1 {
		t.Fatalf("%d keys loaded after a refused import, want 1", n)
	}
	if got, err := gDst.ImportState(env); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("honest import after a refused one: %v", err)
	}
}

// TestImprovedImportRefusesTrailingBytes: bytes appended after an honest
// migration envelope lie outside its MAC, so the import refuses them — and
// before it spends a hardware-TPM command on the KEK.
func TestImprovedImportRefusesTrailingBytes(t *testing.T) {
	gSrc, _ := newImproved(t, "trail-src")
	cli, dstKeys := newPlatform(t, "trail-dst")
	gDst := NewImprovedGuard(dstKeys, NewPolicy())
	state := []byte("instance state to migrate")
	env, err := gSrc.ExportState(testInstance(2, "traveler"), state, gDst.MigrationIdentity())
	if err != nil {
		t.Fatal(err)
	}
	padded := append(append([]byte(nil), env...), make([]byte, 13)...)
	before := hwCommands(cli)
	if _, err := gDst.ImportState(padded); !errors.Is(err, vtpm.ErrStateSealed) {
		t.Fatalf("13 trailing bytes: err = %v, want ErrStateSealed", err)
	}
	if d := hwCommands(cli) - before; d != 0 {
		t.Fatalf("refused import ran %d hardware-TPM commands, want 0", d)
	}
	if got, err := gDst.ImportState(env); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("honest import after a refused one: %v", err)
	}
}

func TestImprovedExportRequiresDestinationKey(t *testing.T) {
	g, _ := newImproved(t, "i5")
	if _, err := g.ExportState(testInstance(1, "g"), []byte("s"), nil); err == nil {
		t.Fatal("export without destination key accepted")
	}
}

func TestBaselineAdmitTrustsDomID(t *testing.T) {
	g := NewBaselineGuard()
	inst := testInstance(1, "victim")
	// Correct domain passes.
	cmd, finish, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, sampleCmd())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cmd, sampleCmd()) {
		t.Fatal("payload modified")
	}
	out, _ := finish([]byte("r"))
	if string(out) != "r" {
		t.Fatal("baseline transformed response")
	}
	// Wrong domain is refused by the table...
	if _, _, err := g.AdmitCommand(inst, inst.BoundDom+1, inst.BoundLaunch, sampleCmd()); err == nil {
		t.Fatal("wrong domid accepted")
	}
	// ...but a *claimed* matching domid sails through: that is the weakness.
	if _, _, err := g.AdmitCommand(inst, inst.BoundDom, xen.LaunchDigest{}, sampleCmd()); err != nil {
		t.Fatalf("claimed domid rejected: %v", err)
	}
}

func TestBaselineStatePlaintext(t *testing.T) {
	g := NewBaselineGuard()
	inst := testInstance(1, "g")
	state := []byte("plaintext state")
	blob, _ := g.ProtectState(inst, nil, state)
	if !bytes.Equal(blob, state) {
		t.Fatal("baseline transformed state")
	}
	env, _ := g.ExportState(inst, state, nil)
	if !bytes.Equal(env, state) {
		t.Fatal("baseline protected migration")
	}
}

// --- Audit ---

func TestAuditChainDetectsTamper(t *testing.T) {
	l := NewAuditLog()
	for i := 0; i < 10; i++ {
		l.Append(1, launchOf("g"), tpm.OrdExtend, Allow, "")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	records := l.Records()
	records[4].Decision = Deny
	if err := VerifyTail(records, l.Head()); err == nil {
		t.Fatal("tampered record passed verification")
	}
	// Truncation is detected against the attested head.
	if err := VerifyTail(l.Records()[:5], l.Head()); err == nil {
		t.Fatal("truncated log passed verification")
	}
}

func TestAuditSequenceMonotonic(t *testing.T) {
	l := NewAuditLog()
	s1 := l.Append(1, launchOf("g"), tpm.OrdExtend, Allow, "")
	s2 := l.Append(1, launchOf("g"), tpm.OrdSeal, Deny, "policy")
	if s2 != s1+1 {
		t.Fatalf("sequence %d then %d", s1, s2)
	}
	recs := l.Records()
	if recs[1].Reason != "policy" || recs[1].Decision != Deny {
		t.Fatal("record fields lost")
	}
}
