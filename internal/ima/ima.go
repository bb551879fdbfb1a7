// Package ima implements a guest-side integrity measurement architecture in
// the style of Linux IMA (Sailer et al., USENIX Security 2004), the
// canonical workload of the Xen vTPM: every file or binary the guest loads
// is hashed, the hash is extended into a dedicated PCR through the vTPM,
// and an append-only measurement list records what was measured. A remote
// verifier later obtains a quote over that PCR and replays the list — if
// the replayed aggregate matches the quoted register, the list is complete
// and untampered, and the verifier can then judge each entry against its
// reference database.
package ima

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"sync"

	"xvtpm/internal/tpm"
)

// MeasurementPCR is the register the measurement list aggregates into
// (PCR 10, as Linux IMA uses).
const MeasurementPCR = 10

// Verification errors.
var (
	ErrAggregateMismatch = errors.New("ima: measurement list does not replay to the quoted PCR")
	ErrUnknownEntry      = errors.New("ima: measured file not in the reference database")
)

// Entry is one measurement: the file identity and its content hash. The
// template hash (what actually enters the PCR) binds both.
type Entry struct {
	Path     string
	FileHash [tpm.DigestSize]byte
}

// TemplateHash is the digest extended into the PCR for an entry:
// SHA1(fileHash ∥ path), matching IMA's ima-ng binding of name and content.
func (e Entry) TemplateHash() [tpm.DigestSize]byte {
	h := sha1.New()
	h.Write(e.FileHash[:])
	h.Write([]byte(e.Path))
	var d [tpm.DigestSize]byte
	copy(d[:], h.Sum(nil))
	return d
}

// Agent runs inside a guest: it measures content into the vTPM and keeps
// the measurement list.
type Agent struct {
	cli *tpm.Client

	mu      sync.Mutex
	entries []Entry
}

// NewAgent creates an agent over a guest's TPM client.
func NewAgent(cli *tpm.Client) *Agent { return &Agent{cli: cli} }

// Measure hashes content, extends the measurement PCR through the vTPM and
// appends the list entry. It returns the new PCR value.
func (a *Agent) Measure(path string, content []byte) ([tpm.DigestSize]byte, error) {
	e := Entry{Path: path, FileHash: sha1.Sum(content)}
	v, err := a.cli.Extend(MeasurementPCR, e.TemplateHash())
	if err != nil {
		return v, fmt.Errorf("ima: extending for %s: %w", path, err)
	}
	a.mu.Lock()
	a.entries = append(a.entries, e)
	a.mu.Unlock()
	return v, nil
}

// List returns a copy of the measurement list, in measurement order.
func (a *Agent) List() []Entry {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Entry(nil), a.entries...)
}

// Replay computes the PCR value a measurement list implies, starting from
// the all-zero register.
func Replay(entries []Entry) [tpm.DigestSize]byte {
	var pcr [tpm.DigestSize]byte
	for _, e := range entries {
		th := e.TemplateHash()
		h := sha1.New()
		h.Write(pcr[:])
		h.Write(th[:])
		copy(pcr[:], h.Sum(nil))
	}
	return pcr
}

// VerifyList checks a measurement list against a quoted PCR value: the
// replayed aggregate must equal the register. On success the list is known
// complete and in order (any insertion, removal, reorder or edit changes
// the aggregate).
func VerifyList(entries []Entry, quotedPCR [tpm.DigestSize]byte) error {
	if got := Replay(entries); got != quotedPCR {
		return fmt.Errorf("%w: replay %x, quoted %x", ErrAggregateMismatch, got, quotedPCR)
	}
	return nil
}

// ReferenceDB is the verifier's database of approved file hashes.
type ReferenceDB map[string][tpm.DigestSize]byte

// Judge validates every entry of a verified list against the database.
// It returns the paths that are unknown or whose hashes deviate.
func (db ReferenceDB) Judge(entries []Entry) (violations []string) {
	for _, e := range entries {
		want, ok := db[e.Path]
		if !ok || want != e.FileHash {
			violations = append(violations, e.Path)
		}
	}
	return violations
}

// Marshal serializes a measurement list for transport to the verifier.
func Marshal(entries []Entry) []byte {
	w := tpm.NewWriter()
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.B16([]byte(e.Path))
		w.Raw(e.FileHash[:])
	}
	return w.Bytes()
}

// minEntrySize is the smallest marshaled entry: an empty path's length
// prefix plus the file hash.
const minEntrySize = 2 + tpm.DigestSize

// Unmarshal reverses Marshal. The entry count comes off the wire, so it is
// checked against the bytes that remain before it sizes an allocation.
func Unmarshal(b []byte) ([]Entry, error) {
	r := tpm.NewReader(b)
	n := r.U32()
	if r.Err() == nil && uint64(n)*minEntrySize > uint64(r.Remaining()) {
		return nil, fmt.Errorf("ima: %d entries claimed in %d bytes", n, r.Remaining())
	}
	entries := make([]Entry, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		var e Entry
		e.Path = string(r.B16())
		copy(e.FileHash[:], r.Raw(tpm.DigestSize))
		entries = append(entries, e)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("ima: %d trailing bytes", r.Remaining())
	}
	return entries, nil
}
