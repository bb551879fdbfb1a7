package core

import (
	"testing"

	"xvtpm/internal/vtpm"
)

// BenchmarkChannelSealOpen measures one full request envelope round (the
// improved design's fixed per-command crypto).
func BenchmarkChannelSealOpen(b *testing.B) {
	var key ChannelKey
	copy(key[:], deriveBytes([]byte("bench"), "chan"))
	codec := NewGuestCodec(key)
	srv := &serverChannel{key: key}
	cmd := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, reqSeq, err := codec.EncodeRequest(nil, cmd)
		if err != nil {
			b.Fatal(err)
		}
		msg, seq, err := srv.open(payload)
		if err != nil {
			b.Fatal(err)
		}
		sealed, err := srv.seal(msg, seq)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.DecodeResponse(nil, sealed, reqSeq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateSealOpen measures one state-envelope round at a typical
// instance-state size.
func BenchmarkStateSealOpen(b *testing.B) {
	key := deriveBytes([]byte("bench"), "state")
	state := make([]byte, 1100) // typical instance blob
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := stateSeal(key, state)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stateOpen(key, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAuditAppend measures one hash-chained decision record.
func BenchmarkAuditAppend(b *testing.B) {
	l := NewAuditLog()
	id := launchOf("g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(1, id, 0x14, Allow, "")
	}
}

// BenchmarkGuardAdmit measures the improved guard's full admission path
// (rate check, channel open, policy, audit, response seal).
func BenchmarkGuardAdmit(b *testing.B) {
	_, keys := newPlatform(b, "bench-guard")
	g := NewImprovedGuard(keys, NewPolicy())
	inst := vtpm.InstanceInfo{ID: 1, BoundDom: 5, BoundLaunch: launchOf("guest")}
	g.Policy().Append(DefaultGuestPolicy(inst.BoundLaunch, inst.ID)...)
	codec, err := g.EncoderFor(inst)
	if err != nil {
		b.Fatal(err)
	}
	cmd := sampleCmd()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, reqSeq, err := codec.EncodeRequest(nil, cmd)
		if err != nil {
			b.Fatal(err)
		}
		got, finish, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, payload)
		if err != nil {
			b.Fatal(err)
		}
		sealed, err := finish(got)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.DecodeResponse(nil, sealed, reqSeq); err != nil {
			b.Fatal(err)
		}
	}
}
