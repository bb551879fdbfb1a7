package tpm

import (
	"testing"
)

// FuzzTPM2HeaderParse throws arbitrary bytes at the 2.0 command engine: the
// header/handle-area/authorization-area parser must always return a
// well-formed 2.0 response (≥10 bytes, correct size field, known tag) and
// never panic. A hostile 2.0 frontend controls every one of these bytes.
func FuzzTPM2HeaderParse(f *testing.F) {
	eng, err := New2(Config{RSABits: 512, Seed: []byte("fuzz2")})
	if err != nil {
		f.Fatal(err)
	}
	cli := NewClient2(DirectTransport{TPM: eng}, nil)
	if err := cli.Startup(TPM2SUClear); err != nil {
		f.Fatal(err)
	}

	// Seed corpus: one representative of each framing shape, plus
	// interesting corruptions.
	getRandom := NewWriter()
	getRandom.U16(TPM2STNoSessions)
	getRandom.U32(12)
	getRandom.U32(TPM2CCGetRandom)
	getRandom.U16(8)
	f.Add(getRandom.Bytes())

	// Authorized PCR extend with a password session and two bank digests.
	extend := NewWriter()
	extend.U16(TPM2STSessions)
	extend.U32(0)
	extend.U32(TPM2CCPCRExtend)
	extend.U32(7) // pcrHandle
	auth := NewWriter()
	auth.U32(TPM2RSPW)
	auth.U16(0)
	auth.U8(TPM2SAContinueSession)
	auth.U16(0)
	extend.U32(uint32(auth.Len()))
	extend.Raw(auth.Bytes())
	extend.U32(2)
	extend.U16(TPM2AlgSHA1)
	extend.Raw(make([]byte, DigestSize))
	extend.U16(TPM2AlgSHA256)
	extend.Raw(make([]byte, SHA256Size))
	ext := extend.Bytes()
	ext[2], ext[3], ext[4], ext[5] = byte(len(ext)>>24), byte(len(ext)>>16), byte(len(ext)>>8), byte(len(ext))
	f.Add(ext)

	// PCR read selecting both banks.
	read := NewWriter()
	read.U16(TPM2STNoSessions)
	read.U32(32)
	read.U32(TPM2CCPCRRead)
	read.U32(2)
	read.U16(TPM2AlgSHA1)
	read.U8(3)
	read.Raw([]byte{0xFF, 0x00, 0x00})
	read.U16(TPM2AlgSHA256)
	read.U8(3)
	read.Raw([]byte{0x0F, 0x00, 0x00})
	f.Add(read.Bytes())

	// Capability query.
	capq := NewWriter()
	capq.U16(TPM2STNoSessions)
	capq.U32(22)
	capq.U32(TPM2CCGetCapability)
	capq.U32(TPM2CapTPMProperties)
	capq.U32(TPM2PTFamilyIndicator)
	capq.U32(8)
	f.Add(capq.Bytes())

	// Session open.
	sess := NewWriter()
	sess.U16(TPM2STNoSessions)
	sess.U32(0)
	sess.U32(TPM2CCStartAuthSession)
	sess.U32(TPM2RHNull)
	sess.U32(TPM2RHNull)
	sess.B16(make([]byte, 16))
	sess.B16(nil)
	sess.U8(TPM2SEHMAC)
	sess.U16(TPM2AlgNull)
	sess.U16(TPM2AlgSHA256)
	sb := sess.Bytes()
	sb[2], sb[3], sb[4], sb[5] = byte(len(sb)>>24), byte(len(sb)>>16), byte(len(sb)>>8), byte(len(sb))
	f.Add(sb)

	// Corruptions: empty, truncated header, lying size field, huge
	// authorizationSize, 1.2 tag on a 2.0 engine.
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x01, 0x00})
	lying := append([]byte(nil), getRandom.Bytes()...)
	lying[5] = 0xFF
	f.Add(lying)
	hugeAuth := append([]byte(nil), ext...)
	hugeAuth[14] = 0x7F // authorizationSize high byte
	f.Add(hugeAuth)
	tag12 := append([]byte(nil), getRandom.Bytes()...)
	tag12[0], tag12[1] = 0x00, 0xC1
	f.Add(tag12)

	f.Fuzz(func(t *testing.T, cmd []byte) {
		resp := eng.Execute(cmd)
		if len(resp) < 10 {
			t.Fatalf("short response %x for %x", resp, cmd)
		}
		r := NewReader(resp)
		tag := r.U16()
		size := r.U32()
		if tag != TPM2STNoSessions && tag != TPM2STSessions {
			t.Fatalf("response tag %#x for %x", tag, cmd)
		}
		if int(size) != len(resp) {
			t.Fatalf("response size field %d, actual %d", size, len(resp))
		}
	})
}

// FuzzRestoreState2 feeds arbitrary blobs to the 2.0 state deserializer:
// reject gracefully or produce an engine that round-trips, never panic.
func FuzzRestoreState2(f *testing.F) {
	eng, err := New2(Config{RSABits: 512, Seed: []byte("fuzz2-state")})
	if err != nil {
		f.Fatal(err)
	}
	cli := NewClient2(DirectTransport{TPM: eng}, nil)
	cli.Startup(TPM2SUClear) //nolint:errcheck // seed-path setup
	good := eng.SaveState()
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte(State2Magic))
	f.Add([]byte(StateMagic)) // 1.2 magic must be rejected here
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0xFF
	f.Add(flipped)
	f.Add(withKeySize(good, 4096))
	f.Fuzz(func(t *testing.T, blob []byte) {
		revived, err := RestoreState2(blob)
		if err != nil {
			return // rejection is fine
		}
		out := revived.SaveState()
		if p, err := StateProfile(out); err != nil || p != Profile20 {
			t.Fatalf("revived 2.0 engine saves malformed state (%v/%v)", p, err)
		}
	})
}
