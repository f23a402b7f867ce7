package fileserver

import (
	"bytes"
	"testing"
	"time"
)

// FuzzParseDigests feeds arbitrary bytes to the digest-table decoder. It must
// never panic, and any table it accepts must serialize back to exactly the
// bytes it was parsed from. The seed corpus under testdata/fuzz replays in
// every go test run; go test -fuzz FuzzParseDigests explores further.
func FuzzParseDigests(f *testing.F) {
	var table []byte
	for _, d := range []Digest{
		{Name: "a.txt", Size: 512, CRC: 0xBEEF, Written: 1500 * time.Millisecond, Clean: true},
		{Name: "", Size: 0, CRC: 0, Written: 0, Clean: false},
	} {
		table = appendDigest(table, d)
	}
	f.Add(table)
	f.Fuzz(func(t *testing.T, data []byte) {
		digs, err := ParseDigests(data)
		if err != nil {
			return
		}
		var out []byte
		for _, d := range digs {
			out = appendDigest(out, d)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("accepted table does not round-trip:\n in: %x\nout: %x", data, out)
		}
	})
}
