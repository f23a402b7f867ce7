package disk

// Pack images. A drive's pack can be saved to and restored from a byte
// stream, which is how the cmd/altofs and cmd/altoexec tools persist a
// simulated disk between runs — the moral equivalent of a removable pack.
//
// The format is deliberately simple and fully self-describing: a magic
// string, the geometry, the pack number, then every sector (header, label,
// value, bad flag) in address order, all in big-endian 16-bit words.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"altoos/internal/sim"
)

const (
	imageMagic   = "ALTOPACK"
	imageVersion = uint16(1)
)

// ErrImage reports a malformed pack image.
var ErrImage = errors.New("disk: bad pack image")

// SaveImage writes the drive's pack to w.
func (d *Drive) SaveImage(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return err
	}
	hdr := []uint16{
		imageVersion,
		uint16(d.geom.Cylinders),
		uint16(d.geom.Heads),
		uint16(d.geom.SectorsPerTrack),
		uint16(d.geom.RevTime / time.Microsecond / 100), // units of 100us
		uint16(d.geom.SeekSettle / time.Microsecond / 100),
		uint16(d.geom.SeekPerCyl / time.Microsecond),
		d.pack,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.BigEndian, v); err != nil {
			return err
		}
	}
	if err := writeString(bw, d.geom.Name); err != nil {
		return err
	}
	for i := range d.slot {
		s := d.view(VDA(i))
		if err := binary.Write(bw, binary.BigEndian, s.header); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.BigEndian, s.label); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.BigEndian, s.value); err != nil {
			return err
		}
		b := byte(0)
		if s.bad {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadImage reads a pack image from r and returns a drive holding it. The
// clock may be shared; if nil a new one is created.
func LoadImage(r io.Reader, clock *sim.Clock) (*Drive, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrImage, err)
	}
	if string(magic) != imageMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrImage, magic)
	}
	var hdr [8]uint16
	for i := range hdr {
		if err := binary.Read(br, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrImage, err)
		}
	}
	if hdr[0] != imageVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrImage, hdr[0])
	}
	name, err := readString(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrImage, err)
	}
	g := Geometry{
		Name:            name,
		Cylinders:       int(hdr[1]),
		Heads:           int(hdr[2]),
		SectorsPerTrack: int(hdr[3]),
		RevTime:         time.Duration(hdr[4]) * 100 * time.Microsecond,
		SeekSettle:      time.Duration(hdr[5]) * 100 * time.Microsecond,
		SeekPerCyl:      time.Duration(hdr[6]) * time.Microsecond,
	}
	d, err := NewDrive(g, hdr[7], clock)
	if err != nil {
		return nil, err
	}
	// Loading an image is a disciplined path: each checksum reflects the
	// value as loaded, so only post-load damage can trip it. A sector the
	// image holds exactly as formatted stays pristine.
	d.vcrcValid = true
	var s sector
	for i := range d.slot {
		if err := binary.Read(br, binary.BigEndian, &s.header); err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		if err := binary.Read(br, binary.BigEndian, &s.label); err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		if err := binary.Read(br, binary.BigEndian, &s.value); err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		s.bad = b != 0
		s.vcrc = valueCRC(s.value[:])
		if s != *d.view(VDA(i)) {
			*d.mutable(VDA(i)) = s
		}
	}
	return d, nil
}

func writeString(w *bufio.Writer, s string) error {
	if len(s) > 0xFF {
		s = s[:0xFF]
	}
	if err := w.WriteByte(byte(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := r.ReadByte()
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
