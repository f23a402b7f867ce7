package core

import (
	"io"
	"testing"

	"altoos/internal/disk"
	"altoos/internal/file"
)

// TestBootedClientMemoryPages pins how much memory a booted fan-in client
// actually occupies: core.New on a freshly formatted mini-pack, the boot
// every Alto of a fan-in building performs, touches at most four of the
// 256 pages of its 64K-word memory, so a fleet of them pays for those
// alone.
func TestBootedClientMemoryPages(t *testing.T) {
	const pinned = 4
	g := disk.Diablo31()
	g.Cylinders = 16
	drv, err := disk.NewDrive(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Format(drv); err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{Drive: drv, Display: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if n := sys.Mem.Resident(); n > pinned {
		t.Fatalf("booted client holds %d memory pages, pinned at %d", n, pinned)
	}
}
