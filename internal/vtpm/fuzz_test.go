package vtpm

import (
	"bytes"
	"testing"
)

// FuzzPipelineResponseMatch throws arbitrary drained-response streams at
// the pipelined frontend's matching machinery: the pending-table deposit
// (tag reuse, stale tags, duplicates for completed slots) and the slot
// decode (framing byte, truncated payloads). The backend end of the ring is
// shared memory, so nothing about a response frame can be trusted; whatever
// arrives must either match an in-flight slot exactly once or be counted
// stale, and decode must reject garbage without panicking.
//
// The fuzz input is parsed as a sequence of deposit ops: one tag byte, one
// length byte, then that many payload bytes (truncated by end of input).
// Tags 1..4 address the in-flight slots; everything else is stale by
// construction.
func FuzzPipelineResponseMatch(f *testing.F) {
	f.Add([]byte{1, 1, payloadRaw})                   // clean match, raw framing
	f.Add([]byte{1, 0, 1, 0})                         // duplicate for a completed slot
	f.Add([]byte{9, 3, payloadEncoded, 0xFF, 0xFF})   // stale tag, encoded junk
	f.Add([]byte{2, 1, 0x7F, 2, 1, payloadRaw})       // unknown framing then reuse
	f.Add([]byte{3, 255, payloadEncoded, 1, 2, 3, 4}) // length byte past input end
	f.Add([]byte{4, 0})                               // empty payload → ErrShortPayload
	f.Fuzz(func(t *testing.T, data []byte) {
		const depth = 4
		p := newPipeline(depth)
		// Slots 0..3 in flight with ring tags 1..4; tag 0 and 5+ are stale.
		for i := range p.slots {
			p.slots[i].used = true
			p.slots[i].id = uint64(i + 1)
		}
		type deposit struct {
			tag     uint64
			payload []byte
		}
		first := make(map[uint64]deposit) // tag → first deposit (the one that lands)
		var wantStale uint64
		p.mu.Lock()
		for i := 0; i < len(data); {
			tag := uint64(data[i])
			i++
			var payload []byte
			if i < len(data) {
				n := int(data[i])
				i++
				if n > len(data)-i {
					n = len(data) - i
				}
				payload = data[i : i+n]
				i += n
			}
			if _, dup := first[tag]; !dup && tag >= 1 && tag <= depth {
				first[tag] = deposit{tag, append([]byte(nil), payload...)}
			} else {
				wantStale++
			}
			p.depositLocked(tag, payload)
		}
		if p.stale != wantStale {
			p.mu.Unlock()
			t.Fatalf("stale = %d, want %d", p.stale, wantStale)
		}
		for j := range p.slots {
			s := &p.slots[j]
			d, landed := first[s.id]
			if s.done != landed {
				p.mu.Unlock()
				t.Fatalf("slot %d done = %v, deposit landed = %v", j, s.done, landed)
			}
			if landed && !bytes.Equal(s.rsp, d.payload) {
				p.mu.Unlock()
				t.Fatalf("slot %d rsp = %x, want %x", j, s.rsp, d.payload)
			}
		}
		p.mu.Unlock()
		// Decode every completed slot: arbitrary bytes must produce a clean
		// error or a copy, never a panic. PlainCodec mirrors the encoded
		// framing the lockstep tests use.
		fe := &Frontend{codec: PlainCodec{}}
		for j := range p.slots {
			if !p.slots[j].done {
				continue
			}
			out, err := fe.decodeFrame(p.slots[j].rsp, p.slots[j].seq)
			if err == nil && len(p.slots[j].rsp) == 0 {
				t.Fatalf("slot %d decoded an empty response: %x", j, out)
			}
		}
	})
}
