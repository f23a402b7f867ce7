package cluster

import (
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/fileserver"
)

// ReadLocal reads the whole named file off a replica's own pack, in the
// file server's byte layout — the offline verification path.
func ReadLocal(fs *file.FS, name string) ([]byte, error) {
	data, err := fileserver.ReadFile(fs, name)
	if err != nil {
		return nil, err
	}
	if drv, ok := fs.Device().(*disk.Drive); ok {
		drv.TraceRecorder().Add("cluster.read.local", 1)
	}
	return data, nil
}
