package core

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
	"xvtpm/internal/xen"
)

// PlatformKeys anchors the improved design's key material in the host's
// hardware TPM:
//
//   - a 32-byte master secret, held only sealed to the hardware TPM under
//     the platform boot PCRs: a host that boots modified management software
//     cannot unseal it;
//   - per-instance state keys and per-(instance, identity) channel keys,
//     derived from the master by HMAC — nothing per-guest needs storing;
//   - a migration bind key whose private half exists only inside the hardware
//     TPM: wrapped under the hardware SRK at rest, and loaded there once for
//     the life of the keys. Inbound migration envelopes are opened by
//     TPM_UnBind on that resident key; Close flushes it.
type PlatformKeys struct {
	hw        *tpm.Client
	ownerAuth [tpm.AuthSize]byte
	srkAuth   [tpm.AuthSize]byte
	bindAuth  [tpm.AuthSize]byte

	master       []byte // unsealed working copy (see SECURITY note below)
	sealedMaster []byte
	bindBlob     []byte // bind key wrapped under the hardware SRK
	bindPub      *rsa.PublicKey
	// bindHandle is the bind key's slot in the hardware TPM. It is written
	// once, at construction, and never cleared: Close flushes the key, and
	// hardware handles are never reused, so an unbind racing Close fails
	// cleanly instead of reaching some other key.
	bindHandle uint32
	closeOnce  sync.Once

	// stateMu guards the root of state-envelope key derivation: fedMaster
	// and stateKeyed. fedMaster, when set, replaces the host-local master for
	// *state-envelope* key derivation: a cluster-wide secret delivered
	// wrapped to this host's migration bind key and unwrapped inside the
	// hardware TPM (JoinFederation). With it, any member host can open any
	// member's committed checkpoints — the failure-driven evacuation path —
	// while channel keys stay host-local. stateKeyed latches once any state
	// key has been derived from the root; a join after that is refused.
	stateMu    sync.Mutex
	fedMaster  []byte
	stateKeyed bool
}

// ErrLateFederationJoin refuses a federation join on a host that has
// already derived instance state keys: switching the derivation root then
// would leave every envelope sealed under the old root unopenable, and every
// key the improved guard caches stale.
var ErrLateFederationJoin = errors.New("core: federation join after instance state keys were derived")

// SECURITY note: the unsealed master lives in the manager's Go heap, which
// this simulation's dump attacker cannot see (the dump model covers domain
// pages and the manager's arena). On real hardware the equivalent working
// copy would be held in locked kernel memory; the design point being
// evaluated is that nothing *derived-at-rest* — state files, mirrors, ring
// traffic, migration envelopes — is ever plaintext, which is exactly what
// the dump attacker exercises.

// platformPCRs are the boot-measurement registers the master is sealed to.
var platformPCRs = []int{0, 1, 2}

// SetupPlatformKeys provisions a host's hardware TPM on first boot: take
// ownership, measure the platform into the boot PCRs, generate and seal the
// master secret, and create the migration bind key.
func SetupPlatformKeys(hw *tpm.Client, platformMeasurement []byte, ownerAuth, srkAuth [tpm.AuthSize]byte) (*PlatformKeys, error) {
	if _, err := hw.TakeOwnership(ownerAuth, srkAuth); err != nil {
		return nil, fmt.Errorf("core: owning hardware TPM: %w", err)
	}
	meas := sha1.Sum(platformMeasurement)
	vals := make([][tpm.DigestSize]byte, 0, len(platformPCRs))
	for _, idx := range platformPCRs {
		v, err := hw.Extend(uint32(idx), meas)
		if err != nil {
			return nil, fmt.Errorf("core: measuring platform: %w", err)
		}
		vals = append(vals, v)
	}
	master := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, master); err != nil {
		return nil, err
	}
	sel := tpm.NewPCRSelection(platformPCRs...)
	info := &tpm.PCRInfo{Selection: sel, DigestAtRelease: tpm.CompositeHash(sel, vals)}
	sealed, err := hw.Seal(tpm.KHSRK, srkAuth, srkAuth, info, master)
	if err != nil {
		return nil, fmt.Errorf("core: sealing master: %w", err)
	}
	pk := &PlatformKeys{
		hw:           hw,
		ownerAuth:    ownerAuth,
		srkAuth:      srkAuth,
		master:       master,
		sealedMaster: sealed,
	}
	copy(pk.bindAuth[:], deriveBytes(master, "bind-key-auth")[:tpm.AuthSize])
	blob, err := hw.CreateWrapKey(tpm.KHSRK, srkAuth, pk.bindAuth, tpm.KeyParams{
		Usage: tpm.KeyUsageBind, Scheme: tpm.ESRSAESOAEP,
	})
	if err != nil {
		return nil, fmt.Errorf("core: creating bind key: %w", err)
	}
	pk.bindBlob = blob
	if err := pk.loadBindKey(); err != nil {
		return nil, err
	}
	return pk, nil
}

// ReopenPlatformKeys revives platform keys after a manager restart by
// unsealing the master from the hardware TPM. It fails if the platform PCRs
// no longer match the sealed state (a modified boot).
func ReopenPlatformKeys(hw *tpm.Client, sealedMaster, bindBlob []byte, ownerAuth, srkAuth [tpm.AuthSize]byte) (*PlatformKeys, error) {
	master, err := hw.Unseal(tpm.KHSRK, srkAuth, srkAuth, sealedMaster)
	if err != nil {
		return nil, fmt.Errorf("core: unsealing master: %w", err)
	}
	pk := &PlatformKeys{
		hw:           hw,
		ownerAuth:    ownerAuth,
		srkAuth:      srkAuth,
		master:       master,
		sealedMaster: sealedMaster,
		bindBlob:     bindBlob,
	}
	copy(pk.bindAuth[:], deriveBytes(master, "bind-key-auth")[:tpm.AuthSize])
	if bindBlob != nil {
		if err := pk.loadBindKey(); err != nil {
			return nil, err
		}
	}
	return pk, nil
}

// loadBindKey loads the wrapped bind key into the hardware TPM, where it
// stays until Close, and reads its public half.
func (pk *PlatformKeys) loadBindKey() error {
	h, err := pk.hw.LoadKey2(tpm.KHSRK, pk.srkAuth, pk.bindBlob)
	if err != nil {
		return fmt.Errorf("core: loading bind key: %w", err)
	}
	pub, err := pk.hw.GetPubKey(h, pk.bindAuth)
	if err != nil {
		pk.hw.FlushKey(h) //nolint:errcheck // handle cleanup
		return fmt.Errorf("core: reading bind key: %w", err)
	}
	pk.bindHandle, pk.bindPub = h, pub
	return nil
}

// Close flushes the resident bind key from the hardware TPM. Later unbinds
// (inbound migrations, JoinFederation) fail. Idempotent: only the first
// call flushes.
func (pk *PlatformKeys) Close() error {
	var err error
	pk.closeOnce.Do(func() {
		if pk.bindHandle != 0 {
			err = pk.hw.FlushKey(pk.bindHandle)
		}
	})
	return err
}

// SealedMaster returns the sealed master blob (persisted by the platform).
func (pk *PlatformKeys) SealedMaster() []byte { return pk.sealedMaster }

// BindBlob returns the wrapped migration bind key (persisted alongside).
func (pk *PlatformKeys) BindBlob() []byte { return pk.bindBlob }

// MigrationPub returns the public half of the migration bind key.
func (pk *PlatformKeys) MigrationPub() *rsa.PublicKey { return pk.bindPub }

// deriveBytes derives labeled key material from a secret.
func deriveBytes(secret []byte, label string, extra ...[]byte) []byte {
	h := hmac.New(sha256.New, secret)
	h.Write([]byte(label))
	for _, e := range extra {
		h.Write(e)
	}
	return h.Sum(nil)
}

// JoinFederation installs a cluster-wide state-key master. wrapped is the
// federation secret OAEP-encrypted to this host's migration bind key
// (tpm.BindEncrypt against MigrationPub); it is unwrapped by TPM_UnBind
// inside the hardware TPM, so only a host whose platform booted clean — the
// bind key's private half lives only inside the hardware TPM — can join.
// It must precede every state-key derivation: once the host has derived
// one (to protect or recover any instance state), the join fails with
// ErrLateFederationJoin and the host-local root stays in force.
func (pk *PlatformKeys) JoinFederation(wrapped []byte) error {
	secret, err := pk.UnbindMigrationKek(wrapped)
	if err != nil {
		return fmt.Errorf("core: unwrapping federation master: %w", err)
	}
	if len(secret) < 16 {
		return fmt.Errorf("core: federation master too short (%d bytes)", len(secret))
	}
	pk.stateMu.Lock()
	defer pk.stateMu.Unlock()
	if pk.stateKeyed {
		clear(secret)
		return ErrLateFederationJoin
	}
	pk.fedMaster = secret
	return nil
}

// InstanceKey derives the state-envelope key for one instance from the
// state root — the federation master once joined, the host-local master
// otherwise — and latches the root against a later join.
func (pk *PlatformKeys) InstanceKey(id vtpm.InstanceID) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(id))
	pk.stateMu.Lock()
	defer pk.stateMu.Unlock()
	pk.stateKeyed = true
	root := pk.master
	if pk.fedMaster != nil {
		root = pk.fedMaster
	}
	return deriveBytes(root, "instance-state", b[:])
}

// instanceStateKeys derives one instance's expanded state key into k.
func (pk *PlatformKeys) instanceStateKeys(id vtpm.InstanceID, k *stateKeys) {
	key := pk.InstanceKey(id)
	expandStateKeys(key, k)
	clear(key)
}

// instanceStateCipher derives one instance's state key and sets it up for
// one envelope, keeping no copy of it.
func (pk *PlatformKeys) instanceStateCipher(id vtpm.InstanceID) (stateCipher, error) {
	key := pk.InstanceKey(id)
	defer clear(key)
	return stateCipherOf(key)
}

// ChannelKeyFor derives the command-channel key for one (instance,
// identity) pair.
func (pk *PlatformKeys) ChannelKeyFor(id vtpm.InstanceID, launch xen.LaunchDigest) ChannelKey {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(id))
	var key ChannelKey
	copy(key[:], deriveBytes(pk.master, "channel", b[:], launch[:]))
	return key
}

// UnbindMigrationKek opens a migration key-encryption-key that was
// OAEP-encrypted to this host's bind key, by one TPM_UnBind on the bind key
// resident in the hardware TPM. Safe for concurrent use.
func (pk *PlatformKeys) UnbindMigrationKek(encKek []byte) ([]byte, error) {
	return pk.hw.UnBind(pk.bindHandle, pk.bindAuth, encKek)
}
