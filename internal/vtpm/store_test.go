package vtpm

import (
	"bytes"
	"errors"
	"testing"

	"xvtpm/internal/faults"
	"xvtpm/internal/store/logstore"
)

// Shared Store conformance suite. Every backend the manager can write
// through must honor the same contract:
//
//   - aliasing: no caller-held slice may alias the store's internal copy,
//     in either direction — the persist and revive paths reuse scratch
//     buffers aggressively, so an aliasing store would let a later
//     checkpoint silently rewrite bytes a revived engine is still reading;
//   - Delete and Get on a missing name fail with ErrNoState (errors.Is);
//   - List is sorted and detached from store state;
//   - Put on an existing name replaces the blob, including shrinking it.
//
// The suite runs against the flat MemStore, the log-structured store, and
// both again under a (quiet) faults.Store wrapper, which must be
// contract-transparent when no faults fire.

func storeBackends() []struct {
	name string
	mk   func() Store
} {
	logCfg := func() logstore.Config {
		// Tiny segments so the suite exercises rolling, with the manager's
		// missing-blob sentinel wired the way production wiring does it.
		return logstore.Config{SegmentSize: 1 << 10, NotFound: ErrNoState}
	}
	return []struct {
		name string
		mk   func() Store
	}{
		{"mem", func() Store { return NewMemStore() }},
		{"log", func() Store { return logstore.New(logCfg()) }},
		{"faults/mem", func() Store { return faults.NewStore(NewMemStore(), faults.NewInjector(1)) }},
		{"faults/log", func() Store { return faults.NewStore(logstore.New(logCfg()), faults.NewInjector(1)) }},
	}
}

func TestStoreConformance(t *testing.T) {
	for _, be := range storeBackends() {
		be := be
		t.Run(be.name, func(t *testing.T) {
			t.Run("PutCopiesInput", func(t *testing.T) {
				s := be.mk()
				data := []byte("original")
				if err := s.Put("blob", data); err != nil {
					t.Fatal(err)
				}
				copy(data, "CLOBBER!")
				got, err := s.Get("blob")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, []byte("original")) {
					t.Fatalf("stored blob aliased the caller's buffer: %q", got)
				}
			})
			t.Run("GetReturnsCopy", func(t *testing.T) {
				s := be.mk()
				if err := s.Put("blob", []byte("original")); err != nil {
					t.Fatal(err)
				}
				first, err := s.Get("blob")
				if err != nil {
					t.Fatal(err)
				}
				copy(first, "CLOBBER!")
				second, err := s.Get("blob")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(second, []byte("original")) {
					t.Fatalf("Get handed out the internal slice: %q", second)
				}
			})
			t.Run("MissingName", func(t *testing.T) {
				s := be.mk()
				if err := s.Delete("absent"); !errors.Is(err, ErrNoState) {
					t.Fatalf("Delete(absent) err = %v, want ErrNoState", err)
				}
				if _, err := s.Get("absent"); !errors.Is(err, ErrNoState) {
					t.Fatalf("Get(absent) err = %v, want ErrNoState", err)
				}
			})
			t.Run("PutReplace", func(t *testing.T) {
				s := be.mk()
				if err := s.Put("blob", bytes.Repeat([]byte{0xAA}, 512)); err != nil {
					t.Fatal(err)
				}
				if err := s.Put("blob", []byte("tiny")); err != nil {
					t.Fatal(err)
				}
				got, err := s.Get("blob")
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != "tiny" {
					t.Fatalf("replace did not shrink: got %d bytes %q", len(got), got[:4])
				}
				names, err := s.List()
				if err != nil {
					t.Fatal(err)
				}
				if len(names) != 1 {
					t.Fatalf("replace duplicated the name: %v", names)
				}
			})
			t.Run("RewriteLeavesEarlierCopiesIntact", func(t *testing.T) {
				// The checkpoint loop rewrites one name over and over; a
				// backend may reuse the name's storage for that, but never
				// one a caller already holds.
				s := be.mk()
				v1 := bytes.Repeat([]byte{0x11}, 64)
				if err := s.Put("blob", v1); err != nil {
					t.Fatal(err)
				}
				held, err := s.Get("blob")
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range [][]byte{bytes.Repeat([]byte{0x22}, 64), bytes.Repeat([]byte{0x33}, 16), bytes.Repeat([]byte{0x44}, 256)} {
					if err := s.Put("blob", v); err != nil {
						t.Fatal(err)
					}
					got, err := s.Get("blob")
					if err != nil || !bytes.Equal(got, v) {
						t.Fatalf("after rewriting %d bytes, Get = %d bytes, err %v", len(v), len(got), err)
					}
				}
				if !bytes.Equal(held, v1) {
					t.Fatalf("a rewrite changed a blob Get had already returned: %x", held[:1])
				}
			})
			t.Run("DeleteThenReput", func(t *testing.T) {
				s := be.mk()
				if err := s.Put("blob", []byte("v1")); err != nil {
					t.Fatal(err)
				}
				if err := s.Delete("blob"); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Get("blob"); !errors.Is(err, ErrNoState) {
					t.Fatalf("Get after Delete = %v, want ErrNoState", err)
				}
				if err := s.Put("blob", []byte("v2")); err != nil {
					t.Fatal(err)
				}
				got, err := s.Get("blob")
				if err != nil || string(got) != "v2" {
					t.Fatalf("re-put after delete: %q err=%v", got, err)
				}
			})
			t.Run("ListSortedAndDetached", func(t *testing.T) {
				s := be.mk()
				for _, n := range []string{"c", "a", "b"} {
					if err := s.Put(n, []byte(n)); err != nil {
						t.Fatal(err)
					}
				}
				names, err := s.List()
				if err != nil {
					t.Fatal(err)
				}
				if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
					t.Fatalf("List = %v, want sorted [a b c]", names)
				}
				// Mutating the returned slice must not disturb the store.
				names[0] = "zzz"
				again, err := s.List()
				if err != nil {
					t.Fatal(err)
				}
				if again[0] != "a" {
					t.Fatalf("List result aliased store state: %v", again)
				}
				if err := s.Delete("b"); err != nil {
					t.Fatal(err)
				}
				final, err := s.List()
				if err != nil {
					t.Fatal(err)
				}
				if len(final) != 2 || final[0] != "a" || final[1] != "c" {
					t.Fatalf("List after delete = %v, want [a c]", final)
				}
			})
		})
	}
}

// TestUnwrapLogStore covers the DebugReport plumbing: the log store must be
// found under fault-injection wrapping, and flat stacks must report none.
func TestUnwrapLogStore(t *testing.T) {
	ls := logstore.New(logstore.Config{NotFound: ErrNoState})
	wrapped := faults.NewStore(ls, faults.NewInjector(1))
	if got, ok := UnwrapLogStore(wrapped); !ok || got != ls {
		t.Fatalf("UnwrapLogStore(faults(log)) = %v, %v", got, ok)
	}
	if got, ok := UnwrapLogStore(ls); !ok || got != ls {
		t.Fatalf("UnwrapLogStore(log) = %v, %v", got, ok)
	}
	if _, ok := UnwrapLogStore(NewMemStore()); ok {
		t.Fatal("UnwrapLogStore(mem) found a log store")
	}
	if _, ok := UnwrapLogStore(faults.NewStore(NewMemStore(), faults.NewInjector(1))); ok {
		t.Fatal("UnwrapLogStore(faults(mem)) found a log store")
	}
}
