package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"xvtpm/internal/tpm"
	"xvtpm/internal/vtpm"
)

// TestServerChannelRejectsMalformedFrames drives the envelope parser through
// the frame-length edge cases an attacker controls: empty, header-only,
// one-short-of-valid truncations, oversized padding, and bit flips in every
// region of the frame. Each must be rejected with a channel (or replay)
// error — never accepted, never a panic.
func TestServerChannelRejectsMalformedFrames(t *testing.T) {
	var key ChannelKey
	copy(key[:], deriveBytes([]byte("frames"), "chan"))
	codec := NewGuestCodec(key)
	valid, _, err := codec.EncodeRequest(nil, sampleCmd())
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(idx int, bit byte) []byte {
		m := append([]byte(nil), valid...)
		m[idx] ^= bit
		return m
	}
	cases := []struct {
		name    string
		payload []byte
		wantErr error
	}{
		{"empty", nil, vtpm.ErrBadChannel},
		{"one byte", []byte{chanDirRequest}, vtpm.ErrBadChannel},
		{"header only", make([]byte, chanHeaderSize), vtpm.ErrBadChannel},
		{"one short of overhead", make([]byte, chanOverhead-1), vtpm.ErrBadChannel},
		{"overhead of zeros", make([]byte, chanOverhead), vtpm.ErrBadChannel},
		{"truncated by one", valid[:len(valid)-1], vtpm.ErrBadChannel},
		{"truncated to half", valid[:len(valid)/2], vtpm.ErrBadChannel},
		{"ciphertext stripped", append(append([]byte(nil), valid[:chanHeaderSize]...), valid[len(valid)-chanMacSize:]...), vtpm.ErrBadChannel},
		{"oversized by one", append(append([]byte(nil), valid...), 0x00), vtpm.ErrBadChannel},
		{"oversized by a page", append(append([]byte(nil), valid...), make([]byte, 4096)...), vtpm.ErrBadChannel},
		{"dir flipped", mutate(0, 0x01), vtpm.ErrBadChannel},
		{"seq flipped", mutate(1, 0x80), vtpm.ErrBadChannel},
		{"ciphertext flipped", mutate(chanHeaderSize, 0xFF), vtpm.ErrBadChannel},
		{"mac flipped", mutate(len(valid)-1, 0x01), vtpm.ErrBadChannel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := &serverChannel{key: key}
			cmd, _, err := srv.open(tc.payload)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("open(%q frame) err = %v, want %v (cmd=%x)", tc.name, err, tc.wantErr, cmd)
			}
		})
	}

	// The untampered frame still opens, and a second delivery of the same
	// frame is a replay — proving the rejections above are about the
	// mutations, not a broken fixture.
	srv := &serverChannel{key: key}
	if _, _, err := srv.open(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if _, _, err := srv.open(valid); !errors.Is(err, vtpm.ErrReplay) {
		t.Fatalf("replayed frame err = %v, want ErrReplay", err)
	}
}

// TestOrdinalOfFrameBounds pins the command-header parser's behaviour on
// short, exact and oversized frames: anything under the 10-byte header
// parses as ordinal 0 (which default-deny policy then refuses), and longer
// frames read exactly bytes [6:10].
func TestOrdinalOfFrameBounds(t *testing.T) {
	full := sampleCmd() // 14-byte GetRandom command
	padded := append(append([]byte(nil), full...), make([]byte, 64)...)
	exact := full[:10]
	cases := []struct {
		name string
		cmd  []byte
		want uint32
	}{
		{"nil", nil, 0},
		{"empty", []byte{}, 0},
		{"tag only", full[:2], 0},
		{"tag and length", full[:6], 0},
		{"one short of header", full[:9], 0},
		{"exact header", exact, tpm.OrdGetRandom},
		{"full command", full, tpm.OrdGetRandom},
		{"oversized command", padded, tpm.OrdGetRandom},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ordinalOf(tc.cmd); got != tc.want {
				t.Fatalf("ordinalOf(%d bytes) = %#x, want %#x", len(tc.cmd), got, tc.want)
			}
		})
	}

	// Sanity: a header with a different ordinal reads that ordinal.
	w := make([]byte, 10)
	binary.BigEndian.PutUint32(w[6:], tpm.OrdExtend)
	if got := ordinalOf(w); got != tpm.OrdExtend {
		t.Fatalf("ordinalOf(extend header) = %#x, want %#x", got, tpm.OrdExtend)
	}
}

// TestAdmitCommandRejectsTruncatedFrames runs the truncation cases through
// the full guard admission path (rate → channel → policy): a guard must
// refuse every malformed frame before it reaches an engine, and the refusal
// must be a channel error, not a policy one — truncation never yields a
// half-parsed command to evaluate.
func TestAdmitCommandRejectsTruncatedFrames(t *testing.T) {
	_, keys := newPlatform(t, "frames")
	inst := testInstance(7, "guest-frames")
	g := NewImprovedGuard(keys, NewPolicy(DefaultGuestPolicy(inst.BoundLaunch, inst.ID)...))
	codec, err := g.EncoderFor(inst)
	if err != nil {
		t.Fatal(err)
	}
	valid, _, err := codec.EncodeRequest(nil, sampleCmd())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, chanHeaderSize, chanOverhead - 1, chanOverhead, len(valid) - 1} {
		if _, _, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, valid[:n]); !errors.Is(err, vtpm.ErrBadChannel) {
			t.Fatalf("AdmitCommand(%d-byte frame) err = %v, want ErrBadChannel", n, err)
		}
	}
	if _, _, err := g.AdmitCommand(inst, inst.BoundDom, inst.BoundLaunch, valid); err != nil {
		t.Fatalf("valid frame rejected after truncation attempts: %v", err)
	}
}
