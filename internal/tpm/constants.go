// Package tpm implements a software TPM 1.2 command engine: the same engine
// serves as the "hardware" TPM of a simulated host and as the per-guest vTPM
// instances the manager creates, exactly as in the Xen vTPM architecture the
// paper builds on.
//
// The engine speaks a TPM-1.2-shaped wire protocol: big-endian framed
// commands with tag/size/ordinal headers, OIAP and OSAP authorization
// sessions with rolling nonces and HMAC-SHA1 proofs, a 24-register SHA-1 PCR
// bank, an EK/SRK key hierarchy with wrapped child keys, sealing bound to PCR
// state and to a per-TPM proof value, quoting, and NV storage.
//
// Deliberate divergences from the TPM 1.2 specification, chosen to keep the
// reproduction focused on the paper's access-control claims, are documented
// where they occur. The two significant ones: (1) private-key wrapping uses a
// hybrid RSA-OAEP + AES-CTR + HMAC envelope rather than direct OAEP of the
// TPM_STORE_ASYMKEY structure, and (2) the authorization parameter digest
// covers the ordinal and the full parameter body rather than the
// per-parameter 1S..nS selection of the spec. Both sides of every exchange in
// this codebase use the same construction, so the security-relevant behaviour
// (who can pass authorization, what a stolen blob is good for) is preserved.
package tpm

// Command and response tags.
const (
	TagRQUCommand      uint16 = 0x00C1
	TagRQUAuth1Command uint16 = 0x00C2
	TagRQUAuth2Command uint16 = 0x00C3
	TagRSPCommand      uint16 = 0x00C4
	TagRSPAuth1Command uint16 = 0x00C5
	TagRSPAuth2Command uint16 = 0x00C6
)

// Ordinals implemented by this engine (TPM 1.2 main spec part 2 values).
const (
	OrdOIAP               uint32 = 0x0000000A
	OrdOSAP               uint32 = 0x0000000B
	OrdTakeOwnership      uint32 = 0x0000000D
	OrdOwnerClear         uint32 = 0x0000005B
	OrdForceClear         uint32 = 0x0000005D
	OrdExtend             uint32 = 0x00000014
	OrdPCRRead            uint32 = 0x00000015
	OrdQuote              uint32 = 0x00000016
	OrdSeal               uint32 = 0x00000017
	OrdUnseal             uint32 = 0x00000018
	OrdCreateWrapKey      uint32 = 0x0000001F
	OrdUnBind             uint32 = 0x0000001E
	OrdCertifyKey         uint32 = 0x00000032
	OrdResetLockValue     uint32 = 0x00000040
	OrdGetPubKey          uint32 = 0x00000021
	OrdSign               uint32 = 0x0000003C
	OrdGetRandom          uint32 = 0x00000046
	OrdStirRandom         uint32 = 0x00000047
	OrdSelfTestFull       uint32 = 0x00000050
	OrdContinueSelfTest   uint32 = 0x00000053
	OrdGetTestResult      uint32 = 0x00000054
	OrdGetCapability      uint32 = 0x00000065
	OrdReadPubek          uint32 = 0x0000007C
	OrdStartup            uint32 = 0x00000099
	OrdSaveState          uint32 = 0x00000098
	OrdFlushSpecific      uint32 = 0x000000BA
	OrdNVDefineSpace      uint32 = 0x000000CC
	OrdNVWriteValue       uint32 = 0x000000CD
	OrdNVReadValue        uint32 = 0x000000CF
	OrdLoadKey2           uint32 = 0x00000041
	OrdPCRReset           uint32 = 0x000000C8
	OrdMakeIdentity       uint32 = 0x00000079
	OrdActivateIdentity   uint32 = 0x0000007A
	OrdCreateEndorsement  uint32 = 0x00000078 // TPM_CreateEndorsementKeyPair
	OrdTerminateHandle    uint32 = 0x00000096
	OrdGetCapabilityOwner uint32 = 0x00000066
)

// Return codes.
const (
	RCSuccess           uint32 = 0x00000000
	RCAuthFail          uint32 = 0x00000001
	RCBadIndex          uint32 = 0x00000002
	RCBadParameter      uint32 = 0x00000003
	RCDeactivated       uint32 = 0x00000006
	RCDisabled          uint32 = 0x00000007
	RCFail              uint32 = 0x00000009
	RCBadOrdinal        uint32 = 0x0000000A
	RCBadKeyHandle      uint32 = 0x00000011 // TPM_INVALID_KEYHANDLE
	RCBadKeyProperty    uint32 = 0x00000028 // TPM_BAD_KEY_PROPERTY
	RCBadTag            uint32 = 0x0000001E
	RCInvalidAuthHandle uint32 = 0x00000024
	RCNoSpace           uint32 = 0x00000011 + 0x100 // engine-local: out of key slots
	RCWrongPCRVal       uint32 = 0x00000018
	RCBadDatasize       uint32 = 0x0000001B
	RCResources         uint32 = 0x00000015
	RCNotSealedBlob     uint32 = 0x00000022 // TPM_NOTSEALED_BLOB
	RCOwnerSet          uint32 = 0x00000014
	RCNoSRK             uint32 = 0x00000012
	RCBadLocality       uint32 = 0x00000029 + 0x100 // engine-local
	RCAuthConflict      uint32 = 0x0000003B
	RCInvalidPostInit   uint32 = 0x00000026
	RCAreaLocked        uint32 = 0x0000003C
	RCBadPresence       uint32 = 0x0000002D
	RCDefendLock        uint32 = 0x00000803 // TPM_DEFEND_LOCK_RUNNING
)

// Well-known handles.
const (
	KHSRK       uint32 = 0x40000000
	KHOwner     uint32 = 0x40000001
	KHEK        uint32 = 0x40000006
	KHInvalid   uint32 = 0xFFFFFFFF
	maxKeySlots        = 16
	maxSessions        = 32
)

// Entity types for OSAP.
const (
	ETKeyHandle uint16 = 0x0001
	ETOwner     uint16 = 0x0002
	ETSRK       uint16 = 0x0004
)

// Startup types.
const (
	STClear       uint16 = 0x0001
	STState       uint16 = 0x0002
	STDeactivated uint16 = 0x0003
)

// Key usage values.
const (
	KeyUsageSigning  uint16 = 0x0010
	KeyUsageStorage  uint16 = 0x0011
	KeyUsageIdentity uint16 = 0x0012
	KeyUsageBind     uint16 = 0x0014
	KeyUsageLegacy   uint16 = 0x0015
)

// Algorithm, encryption and signature scheme identifiers.
const (
	AlgRSA               uint32 = 0x00000001
	ESRSAESOAEP          uint16 = 0x0003
	SSRSASSAPKCS1v15SHA1 uint16 = 0x0002
	SSNone               uint16 = 0x0001
)

// Resource types for FlushSpecific.
const (
	RTKey     uint32 = 0x00000001
	RTAuth    uint32 = 0x00000002
	RTContext uint32 = 0x00000004
)

// Capability areas for GetCapability (subset).
const (
	CapOrd      uint32 = 0x00000001
	CapProperty uint32 = 0x00000005
	CapVersion  uint32 = 0x00000006
	CapHandle   uint32 = 0x00000014

	PropPCRCount     uint32 = 0x00000101
	PropManufacturer uint32 = 0x00000103
	PropKeySlots     uint32 = 0x00000104
	PropOwner        uint32 = 0x00000111
	PropMaxNVSize    uint32 = 0x00000123
)

// NV permission bits (subset).
const (
	NVPerOwnerWrite  uint32 = 0x00000002
	NVPerAuthWrite   uint32 = 0x00000004
	NVPerOwnerRead   uint32 = 0x00020000
	NVPerAuthRead    uint32 = 0x00040000
	NVPerWriteDefine uint32 = 0x00002000
)

// PCR geometry.
const (
	NumPCRs    = 24
	DigestSize = 20 // SHA-1
	NonceSize  = 20
	AuthSize   = 20
)

// Payload type tags inside sealed blobs.
const payloadSealedData byte = 0x05

// Manufacturer string reported by GetCapability.
const Manufacturer = "XVTM"
