package file

import (
	"slices"
	"testing"
	"time"

	"altoos/internal/disk"
)

// The on-disk decoders take whatever a sector holds: a leader or descriptor
// page may be damaged, stale or not a leader at all. They must reject what
// they cannot parse and never panic. The seed corpora under testdata/fuzz
// replay in every go test run; go test -fuzz explores further.

// wordsOf packs bytes big-endian into disk words, dropping an odd last byte.
func wordsOf(data []byte) []disk.Word {
	w := make([]disk.Word, len(data)/2)
	for i := range w {
		w[i] = disk.Word(data[2*i])<<8 | disk.Word(data[2*i+1])
	}
	return w
}

// bytesOf is wordsOf's inverse.
func bytesOf(w []disk.Word) []byte {
	out := make([]byte, 0, 2*len(w))
	for _, x := range w {
		out = append(out, byte(x>>8), byte(x))
	}
	return out
}

// FuzzDecodeLeader: a leader page that decodes re-encodes to a page that
// decodes to the same leader.
func FuzzDecodeLeader(f *testing.F) {
	var v [disk.PageWords]disk.Word
	l := Leader{Created: time.Second, Written: 2 * time.Second, Name: "leader.fuzz", LastPN: 3, LastAddr: 77, MaybeConsecutive: true}
	if err := l.Encode(&v); err != nil {
		f.Fatal(err)
	}
	f.Add(bytesOf(v[:]))
	f.Fuzz(func(t *testing.T, data []byte) {
		var page [disk.PageWords]disk.Word
		copy(page[:], wordsOf(data))
		got, err := DecodeLeader(&page)
		if err != nil {
			return
		}
		var again [disk.PageWords]disk.Word
		if err := got.Encode(&again); err != nil {
			t.Fatalf("decoded leader does not encode: %v", err)
		}
		if back, err := DecodeLeader(&again); err != nil || back != got {
			t.Errorf("leader does not round-trip: %+v -> %+v, %v", got, back, err)
		}
	})
}

// FuzzDecodeDescriptor: a descriptor that decodes re-encodes to exactly the
// words it was decoded from (the fixed header and the map it covers).
func FuzzDecodeDescriptor(f *testing.F) {
	g := disk.Diablo31()
	d := &Descriptor{Shape: g, Pack: 1, NextSerial: 0x10002, Free: NewBitMap(g.NSectors())}
	d.Free.SetBusy(0)
	d.Free.SetBusy(disk.VDA(g.NSectors() - 1))
	f.Add(bytesOf(d.EncodeWords()))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := wordsOf(data)
		got, err := DecodeDescriptor(w)
		if err != nil {
			return
		}
		enc := got.EncodeWords()
		if len(enc) > len(w) || !slices.Equal(enc, w[:len(enc)]) {
			t.Errorf("descriptor does not round-trip:\n in: %x\nout: %x", w, enc)
		}
	})
}
