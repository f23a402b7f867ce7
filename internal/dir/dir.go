// Package dir implements directories: files containing (string, full name)
// pairs (§3.4). Nothing about a directory is special to the file system — it
// is an ordinary file whose identifier lies in the reserved directory range —
// so directories may form a tree or an arbitrary directed graph, a file may
// appear in any number of directories, and losing a directory loses no
// files, only the names that pointed at them.
//
// Directory entries are deliberately "taken less seriously" than leader
// pages: the leader name is the absolute self-identification, directory
// entries are the lookup convenience. The Scavenger re-creates missing
// entries from leader names.
package dir

import (
	"errors"
	"fmt"
	"sort"

	"altoos/internal/disk"
	"altoos/internal/file"
)

// Errors returned by directory operations.
var (
	// ErrNotFound reports a name or FV absent from the directory.
	ErrNotFound = errors.New("dir: not found")
	// ErrExists reports an Insert of a name already present.
	ErrExists = errors.New("dir: name already present")
	// ErrFormat reports an unparseable directory page (damage the Scavenger
	// should look at).
	ErrFormat = errors.New("dir: malformed directory")
	// ErrNotDirectory reports an attempt to open a non-directory file as a
	// directory.
	ErrNotDirectory = errors.New("dir: not a directory file")
)

// Entry is one (string name, full name) pair.
type Entry struct {
	Name string
	FN   file.FN
}

// Directory is an open directory file. Like the file handle under it, a
// Directory is not safe for concurrent use.
type Directory struct {
	fs *file.FS
	f  *file.File
	// page is the buffer every scan and Insert reads pages into, so
	// looking a name up allocates nothing.
	page [disk.PageWords]disk.Word
}

// Entry serialization, in words:
//
//	0    total entry length in words (>= entryFixed+1)
//	1,2  FID
//	3    version
//	4    leader address (hint)
//	5    name length in bytes
//	6..  name bytes, two per word
//
// A length word of endMark ends the directory; padMark skips to the next
// page boundary so entries never straddle pages.
const (
	entryFixed = 6
	endMark    = 0
	padMark    = 0xFFFF
)

// maxName bounds directory names to what a single entry can hold.
const maxName = 2 * (disk.PageWords - entryFixed - 1)

// Open opens an existing directory by full name.
func Open(fs *file.FS, fn file.FN) (*Directory, error) {
	if !fn.FV.FID.IsDirectory() {
		return nil, fmt.Errorf("%w: %v", ErrNotDirectory, fn.FV)
	}
	f, err := fs.Open(fn)
	if err != nil {
		return nil, err
	}
	return &Directory{fs: fs, f: f}, nil
}

// OpenRoot opens the root directory recorded in the disk descriptor.
func OpenRoot(fs *file.FS) (*Directory, error) {
	return Open(fs, fs.RootDir())
}

// Create makes a new, empty directory file with the given leader name and
// enters it into parent (which may be nil for a free-floating directory).
func Create(fs *file.FS, parent *Directory, name string) (*Directory, error) {
	f, err := fs.CreateDirectoryFile(name)
	if err != nil {
		return nil, err
	}
	d := &Directory{fs: fs, f: f}
	if err := d.store(nil); err != nil {
		return nil, err
	}
	if parent != nil {
		if err := parent.Insert(name, f.FN()); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Adopt wraps an already-open directory file. The Scavenger uses it for
// files it has just verified, and for a recreated root.
func Adopt(fs *file.FS, f *file.File) *Directory {
	return &Directory{fs: fs, f: f}
}

// Clear rewrites the directory to contain no entries.
func (d *Directory) Clear() error { return d.store(nil) }

// Store replaces the directory's entire contents. The Scavenger uses it to
// write back a repaired entry list.
func (d *Directory) Store(entries []Entry) error { return d.store(entries) }

// FN returns the directory file's full name.
func (d *Directory) FN() file.FN { return d.f.FN() }

// File returns the underlying file, for the Scavenger and tools.
func (d *Directory) File() *file.File { return d.f }

// Load parses every entry. Damage is reported as ErrFormat, together with
// the entries before it; the caller (or the Scavenger) decides what to do
// about it.
func (d *Directory) Load() ([]Entry, error) {
	var entries []Entry
	err := d.scan(func(buf *[disk.PageWords]disk.Word, i int) {
		entries = append(entries, Entry{Name: entryName(buf, i), FN: entryFN(buf, i)})
	})
	if err != nil && !errors.Is(err, ErrFormat) {
		return nil, err
	}
	return entries, err
}

// scan is the parser every directory read goes through (Insert's
// appending pass aside). It reads the pages in order into d.page, calls visit with the word offset of each entry, and stops at the
// end mark; every page up to that mark is read even after the entry a
// caller wanted, so a lookup costs the same simulated time whether or not
// it hits. An entry whose length or name length does not fit ends the scan
// with ErrFormat before it is visited; a failed page read ends it with the
// read's error.
func (d *Directory) scan(visit func(buf *[disk.PageWords]disk.Word, i int)) error {
	buf := &d.page
	lastPN := d.f.LastPN()
	for pn := disk.Word(1); pn <= lastPN; pn++ {
		n, err := d.f.ReadPage(pn, buf)
		if err != nil {
			return err
		}
		words := (n + 1) / 2
		i := 0
		for i < words {
			switch buf[i] {
			case endMark:
				return nil
			case padMark:
				i = words // next page
				continue
			}
			length := int(buf[i])
			if length < entryFixed+1 || i+length > words {
				return fmt.Errorf("%w: entry length %d at page %d word %d", ErrFormat, length, pn, i)
			}
			nameLen := int(buf[i+5])
			if nameLen > 2*(length-entryFixed) {
				return fmt.Errorf("%w: name length %d in %d-word entry", ErrFormat, nameLen, length)
			}
			visit(buf, i)
			i += length
		}
	}
	return nil
}

// entryFN decodes the full name of the entry at word offset i.
func entryFN(buf *[disk.PageWords]disk.Word, i int) file.FN {
	return file.FN{
		FV: disk.FV{
			FID:     disk.FID(buf[i+1])<<16 | disk.FID(buf[i+2]),
			Version: buf[i+3],
		},
		Leader: disk.VDA(buf[i+4]),
	}
}

// entryName decodes the name of the entry at word offset i, which scan has
// checked fits inside the entry.
func entryName(buf *[disk.PageWords]disk.Word, i int) string {
	nameLen := int(buf[i+5])
	var nb [maxName + 2]byte // stack scratch: one allocation per name, not two
	for j := 0; j < nameLen; j++ {
		w := buf[i+entryFixed+j/2]
		if j%2 == 0 {
			nb[j] = byte(w >> 8)
		} else {
			nb[j] = byte(w)
		}
	}
	return string(nb[:nameLen])
}

// store rewrites the directory file to contain exactly these entries.
func (d *Directory) store(entries []Entry) error {
	var pages [][disk.PageWords]disk.Word
	var cur [disk.PageWords]disk.Word
	used := 0
	flush := func() {
		if used < disk.PageWords {
			cur[used] = endMark
		}
		pages = append(pages, cur)
		cur = [disk.PageWords]disk.Word{}
		used = 0
	}
	for _, e := range entries {
		if len(e.Name) > maxName {
			return fmt.Errorf("%w: name %q too long", file.ErrBadArg, e.Name)
		}
		length := entryFixed + (len(e.Name)+1)/2
		if used+length+1 > disk.PageWords { // +1 for a possible end mark
			cur[used] = padMark
			used = disk.PageWords // the pad consumes the rest of the page
			flush()
		}
		used = putEntry(&cur, used, e)
	}
	flush()

	// Write the pages: all but the last full, the last partial. When the
	// file shrinks, interior pages must be written while they are still
	// interior, then the file truncated, then the new tail written.
	n := len(pages)
	tail := pageTailLen(pages[n-1])
	lastPN := d.f.LastPN()
	if int(lastPN) > n {
		pn := disk.Word(0)
		for i := 0; i < n-1; i++ {
			pn++
			pg := pages[i]
			if err := d.f.WritePage(pn, &pg, disk.PageBytes); err != nil {
				return err
			}
		}
		if err := d.f.Truncate(disk.Word(n), tail); err != nil {
			return err
		}
		pg := pages[n-1]
		if err := d.f.WritePage(disk.Word(n), &pg, tail); err != nil {
			return err
		}
	} else {
		pn := disk.Word(0)
		for i, p := range pages {
			pn++
			length := disk.PageBytes
			if i == n-1 {
				length = tail
			}
			pg := p
			if err := d.f.WritePage(pn, &pg, length); err != nil {
				return err
			}
		}
	}
	return d.f.Sync()
}

// putEntry serializes one entry into the page at word offset used, which the
// caller has verified it fits at, and returns the offset after it. Both store
// and the appending Insert go through it, so their layouts are identical.
func putEntry(cur *[disk.PageWords]disk.Word, used int, e Entry) int {
	length := entryFixed + (len(e.Name)+1)/2
	cur[used] = disk.Word(length)
	cur[used+1] = disk.Word(e.FN.FV.FID >> 16)
	cur[used+2] = disk.Word(e.FN.FV.FID)
	cur[used+3] = e.FN.FV.Version
	cur[used+4] = disk.Word(e.FN.Leader)
	cur[used+5] = disk.Word(len(e.Name))
	for j := 0; j < len(e.Name); j++ {
		w := &cur[used+entryFixed+j/2]
		if j%2 == 0 {
			*w |= disk.Word(e.Name[j]) << 8
		} else {
			*w |= disk.Word(e.Name[j])
		}
	}
	return used + length
}

// entryNameIs compares the name of the entry at word offset i against name
// without decoding it into a buffer.
func entryNameIs(buf *[disk.PageWords]disk.Word, i int, name string) bool {
	if int(buf[i+5]) != len(name) {
		return false
	}
	for j := 0; j < len(name); j++ {
		w := buf[i+entryFixed+j/2]
		b := byte(w)
		if j%2 == 0 {
			b = byte(w >> 8)
		}
		if b != name[j] {
			return false
		}
	}
	return true
}

// pageTailLen returns the byte length store would assign the final page.
func pageTailLen(p [disk.PageWords]disk.Word) int {
	lastUsed := 0
	for j := disk.PageWords - 1; j >= 0; j-- {
		if p[j] != 0 {
			lastUsed = j + 1
			break
		}
	}
	length := 2 * (lastUsed + 1)
	if length >= disk.PageBytes {
		length = disk.PageBytes - 2
	}
	return length
}

// Lookup finds the full name bound to name: the first entry carrying it.
func (d *Directory) Lookup(name string) (file.FN, error) {
	var fn file.FN
	found := false
	err := d.scan(func(buf *[disk.PageWords]disk.Word, i int) {
		if !found && entryNameIs(buf, i, name) {
			fn, found = entryFN(buf, i), true
		}
	})
	switch {
	case err != nil:
		return file.FN{}, err
	case !found:
		return file.FN{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return fn, nil
}

// LookupFV finds an entry by (FID, version), returning its recorded leader
// address hint. Used by the §3.6 ladder when a program holds a valid FV but
// a stale address.
func (d *Directory) LookupFV(fv disk.FV) (file.FN, error) {
	var fn file.FN
	found := false
	err := d.scan(func(buf *[disk.PageWords]disk.Word, i int) {
		if e := entryFN(buf, i); !found && e.FV == fv {
			fn, found = e, true
		}
	})
	switch {
	case err != nil:
		return file.FN{}, err
	case !found:
		return file.FN{}, fmt.Errorf("%w: %v", ErrNotFound, fv)
	}
	return fn, nil
}

// Insert binds name to fn. The name must not already be present.
//
// Insert appends: it scans the existing pages once (checking for the name in
// passing) and rewrites only the final page — plus one fresh page when the
// entry does not fit — rather than re-serializing the whole directory. The
// layout it produces is exactly the one store would.
func (d *Directory) Insert(name string, fn file.FN) error {
	if len(name) > maxName {
		return fmt.Errorf("%w: name %q too long", file.ErrBadArg, name)
	}
	length := entryFixed + (len(name)+1)/2
	lastPN := d.f.LastPN()
	buf := &d.page
	endPN, endAt := disk.Word(0), 0
scan:
	for pn := disk.Word(1); pn <= lastPN; pn++ {
		*buf = [disk.PageWords]disk.Word{}
		n, err := d.f.ReadPage(pn, buf)
		if err != nil {
			return err
		}
		words := (n + 1) / 2
		i := 0
		for i < words {
			switch buf[i] {
			case endMark:
				endPN, endAt = pn, i
				break scan
			case padMark:
				continue scan
			}
			l := int(buf[i])
			if l < entryFixed+1 || i+l > words || int(buf[i+5]) > 2*(l-entryFixed) {
				break scan // malformed: let the slow path report it
			}
			if entryNameIs(buf, i, name) {
				return fmt.Errorf("%w: %q", ErrExists, name)
			}
			i += l
		}
	}
	if endPN == 0 || endPN != lastPN {
		// No end mark where the appending fast path expects one (a damaged
		// or oddly shaped directory): fall back to the full rewrite, which
		// also normalizes the layout.
		entries, err := d.Load()
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.Name == name {
				return fmt.Errorf("%w: %q", ErrExists, name)
			}
		}
		entries = append(entries, Entry{Name: name, FN: fn})
		return d.store(entries)
	}

	e := Entry{Name: name, FN: fn}
	if endAt+length+1 > disk.PageWords { // +1 for the end mark
		// Pad the tail page to a full interior page, then start a new tail.
		buf[endAt] = padMark
		if err := d.f.WritePage(endPN, buf, disk.PageBytes); err != nil {
			return err
		}
		*buf = [disk.PageWords]disk.Word{}
		used := putEntry(buf, 0, e)
		buf[used] = endMark
		if err := d.f.WritePage(endPN+1, buf, pageTailLen(*buf)); err != nil {
			return err
		}
	} else {
		used := putEntry(buf, endAt, e)
		buf[used] = endMark
		if err := d.f.WritePage(endPN, buf, pageTailLen(*buf)); err != nil {
			return err
		}
	}
	return d.f.Sync()
}

// Update rebinds name to fn (or inserts it if absent) — used to refresh a
// stale leader-address hint after recovery.
func (d *Directory) Update(name string, fn file.FN) error {
	entries, err := d.Load()
	if err != nil {
		return err
	}
	for i := range entries {
		if entries[i].Name == name {
			entries[i].FN = fn
			return d.store(entries)
		}
	}
	entries = append(entries, Entry{Name: name, FN: fn})
	return d.store(entries)
}

// Remove deletes the binding for name. The file itself is untouched: names
// and files are independent.
func (d *Directory) Remove(name string) error {
	entries, err := d.Load()
	if err != nil {
		return err
	}
	for i := range entries {
		if entries[i].Name == name {
			entries = append(entries[:i], entries[i+1:]...)
			return d.store(entries)
		}
	}
	return fmt.Errorf("%w: %q", ErrNotFound, name)
}

// List returns all entries sorted by name.
func (d *Directory) List() ([]Entry, error) {
	entries, err := d.Load()
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// InitRoot populates a freshly formatted root directory with the standard
// self-describing entries: the root itself and the disk descriptor.
func InitRoot(fs *file.FS) (*Directory, error) {
	root, err := OpenRoot(fs)
	if err != nil {
		return nil, err
	}
	desc := file.FN{FV: disk.FV{FID: disk.DescriptorFID, Version: 1}, Leader: file.DescLeaderVDA}
	if err := root.Insert("SysDir.", root.FN()); err != nil {
		return nil, err
	}
	if err := root.Insert("DiskDescriptor.", desc); err != nil {
		return nil, err
	}
	return root, nil
}

// Walk visits every directory reachable from start (following entries whose
// identifiers are in the directory range), calling visit once per directory.
// Cycles are fine: the graph may be arbitrary (§3.4).
func Walk(fs *file.FS, start file.FN, visit func(*Directory) error) error {
	seen := map[disk.FV]bool{}
	queue := []file.FN{start}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if seen[fn.FV] {
			continue
		}
		seen[fn.FV] = true
		d, err := Open(fs, fn)
		if err != nil {
			// A vanished subdirectory loses names, not files; keep walking.
			continue
		}
		if err := visit(d); err != nil {
			return err
		}
		n := len(queue)
		err = d.scan(func(buf *[disk.PageWords]disk.Word, i int) {
			if fn := entryFN(buf, i); fn.FV.FID.IsDirectory() && !seen[fn.FV] {
				queue = append(queue, fn)
			}
		})
		if err != nil {
			queue = queue[:n] // a damaged directory contributes no children
		}
	}
	return nil
}

// ResolveFV searches every reachable directory for fv, the §3.6 "look up
// the FV in a directory" ladder step. It returns the recorded leader address.
func ResolveFV(fs *file.FS) func(fv disk.FV) (disk.VDA, error) {
	return func(fv disk.FV) (disk.VDA, error) {
		var found *file.FN
		err := Walk(fs, fs.RootDir(), func(d *Directory) error {
			if found != nil {
				return nil
			}
			if fn, err := d.LookupFV(fv); err == nil {
				found = &fn
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		if found == nil {
			return 0, fmt.Errorf("%w: %v in any directory", ErrNotFound, fv)
		}
		return found.Leader, nil
	}
}

// ResolveName searches every reachable directory for a string name,
// returning its full name — the ladder's next step after FV lookup fails.
func ResolveName(fs *file.FS, name string) (file.FN, error) {
	var found *file.FN
	err := Walk(fs, fs.RootDir(), func(d *Directory) error {
		if found != nil {
			return nil
		}
		if fn, err := d.Lookup(name); err == nil {
			found = &fn
		}
		return nil
	})
	if err != nil {
		return file.FN{}, err
	}
	if found == nil {
		return file.FN{}, fmt.Errorf("%w: %q in any directory", ErrNotFound, name)
	}
	return *found, nil
}
