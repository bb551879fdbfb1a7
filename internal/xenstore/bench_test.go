package xenstore

import (
	"fmt"
	"testing"

	"xvtpm/internal/xen"
)

// BenchmarkWrite measures one direct store write.
func BenchmarkWrite(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Write(xen.Dom0, NoTxn, fmt.Sprintf("/bench/key%d", i%256), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead measures one store read.
func BenchmarkRead(b *testing.B) {
	s := New()
	if err := s.Write(xen.Dom0, NoTxn, "/bench/key", []byte("value")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(xen.Dom0, NoTxn, "/bench/key"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnCommit measures a three-key transactional handshake (the
// split-driver connection pattern).
func BenchmarkTxnCommit(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := s.WithTxn(xen.Dom0, 4, func(id TxnID) error {
			if err := s.Write(xen.Dom0, id, "/dev/ring-ref", []byte("8")); err != nil {
				return err
			}
			if err := s.Write(xen.Dom0, id, "/dev/event-channel", []byte("3")); err != nil {
				return err
			}
			return s.Write(xen.Dom0, id, "/dev/state", []byte("4"))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWatchFire measures mutation delivery to a subtree watch.
func BenchmarkWatchFire(b *testing.B) {
	s := New()
	w, err := s.Watch(xen.Dom0, "/dev")
	if err != nil {
		b.Fatal(err)
	}
	<-w.Events() // initial
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(xen.Dom0, NoTxn, "/dev/state", []byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
		<-w.Events()
	}
}

// BenchmarkTxnStart measures opening and aborting a transaction on a store
// holding 64 and 5,000 guest-shaped directories: the transaction shares the
// live tree, so both cost the same.
func BenchmarkTxnStart(b *testing.B) {
	for _, guests := range []int{64, 5000} {
		b.Run(fmt.Sprintf("guests=%d", guests), func(b *testing.B) {
			s := guestShapedStore(b, guests)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := s.TxnStart(xen.Dom0)
				if err := s.TxnAbort(xen.Dom0, id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
