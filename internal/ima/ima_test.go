package ima

import (
	"crypto/sha1"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"xvtpm/internal/tpm"
)

func newAgent(t testing.TB, seed string) (*Agent, *tpm.Client) {
	t.Helper()
	eng, err := tpm.New(tpm.Config{RSABits: 512, Seed: []byte(seed)})
	if err != nil {
		t.Fatal(err)
	}
	cli := tpm.NewClient(tpm.DirectTransport{TPM: eng}, nil)
	if err := cli.Startup(tpm.STClear); err != nil {
		t.Fatal(err)
	}
	return NewAgent(cli), cli
}

func TestMeasureAndReplayMatchPCR(t *testing.T) {
	a, cli := newAgent(t, "m1")
	files := map[string][]byte{
		"/sbin/init":     []byte("init-binary"),
		"/usr/bin/dbd":   []byte("database-daemon"),
		"/etc/dbd.conf":  []byte("config contents"),
		"/lib/libssl.so": []byte("crypto library"),
	}
	for path, content := range files {
		if _, err := a.Measure(path, content); err != nil {
			t.Fatalf("Measure(%s): %v", path, err)
		}
	}
	pcr, err := cli.PCRRead(MeasurementPCR)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyList(a.List(), pcr); err != nil {
		t.Fatalf("honest list does not verify: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	a, cli := newAgent(t, "m2")
	for i, c := range []string{"one", "two", "three"} {
		if _, err := a.Measure("/bin/"+c, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pcr, _ := cli.PCRRead(MeasurementPCR)
	honest := a.List()

	// Edited entry.
	edited := append([]Entry(nil), honest...)
	edited[1].FileHash[0] ^= 0xFF
	if err := VerifyList(edited, pcr); !errors.Is(err, ErrAggregateMismatch) {
		t.Fatalf("edited list err = %v", err)
	}
	// Removed entry (hiding a measurement).
	removed := append(append([]Entry(nil), honest[:1]...), honest[2:]...)
	if err := VerifyList(removed, pcr); !errors.Is(err, ErrAggregateMismatch) {
		t.Fatalf("removed list err = %v", err)
	}
	// Reordered entries.
	reordered := []Entry{honest[1], honest[0], honest[2]}
	if err := VerifyList(reordered, pcr); !errors.Is(err, ErrAggregateMismatch) {
		t.Fatalf("reordered list err = %v", err)
	}
	// Appended entry not reflected in the PCR.
	appended := append(append([]Entry(nil), honest...), Entry{Path: "/bin/fake"})
	if err := VerifyList(appended, pcr); !errors.Is(err, ErrAggregateMismatch) {
		t.Fatalf("appended list err = %v", err)
	}
}

func TestTemplateHashBindsPathAndContent(t *testing.T) {
	e1 := Entry{Path: "/a", FileHash: sha1.Sum([]byte("x"))}
	e2 := Entry{Path: "/b", FileHash: sha1.Sum([]byte("x"))}
	e3 := Entry{Path: "/a", FileHash: sha1.Sum([]byte("y"))}
	if e1.TemplateHash() == e2.TemplateHash() || e1.TemplateHash() == e3.TemplateHash() {
		t.Fatal("template hash does not bind both path and content")
	}
}

func TestReferenceDBJudge(t *testing.T) {
	db := ReferenceDB{
		"/sbin/init": sha1.Sum([]byte("init-binary")),
		"/bin/sh":    sha1.Sum([]byte("shell")),
	}
	entries := []Entry{
		{Path: "/sbin/init", FileHash: sha1.Sum([]byte("init-binary"))}, // ok
		{Path: "/bin/sh", FileHash: sha1.Sum([]byte("trojaned-shell"))}, // hash deviates
		{Path: "/tmp/rootkit", FileHash: sha1.Sum([]byte("evil"))},      // unknown
	}
	v := db.Judge(entries)
	if len(v) != 2 || v[0] != "/bin/sh" || v[1] != "/tmp/rootkit" {
		t.Fatalf("violations = %v", v)
	}
	if db.Judge(entries[:1]) != nil {
		t.Fatal("clean list reported violations")
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(paths []string, hashes [][tpm.DigestSize]byte) bool {
		n := len(paths)
		if len(hashes) < n {
			n = len(hashes)
		}
		entries := make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			p := paths[i]
			if len(p) > 1000 {
				p = p[:1000]
			}
			entries = append(entries, Entry{Path: p, FileHash: hashes[i]})
		}
		got, err := Unmarshal(Marshal(entries))
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range entries {
			if got[i] != entries[i] {
				return false
			}
		}
		return Replay(got) == Replay(entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{0, 0, 0, 5, 1}); err == nil {
		t.Fatal("truncated list accepted")
	}
	blob := Marshal([]Entry{{Path: "/a"}})
	if _, err := Unmarshal(append(blob, 9)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A 4-byte list claiming 10^6 entries is refused without sizing an
	// allocation from the claim.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal([]byte{0x00, 0x0f, 0x42, 0x40})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("over-claimed entry count accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("refusing a 4-byte list allocated %d bytes", d)
	}
}

func TestEmptyListReplaysToZero(t *testing.T) {
	if Replay(nil) != ([tpm.DigestSize]byte{}) {
		t.Fatal("empty replay not zero")
	}
	if err := VerifyList(nil, [tpm.DigestSize]byte{}); err != nil {
		t.Fatal(err)
	}
}
