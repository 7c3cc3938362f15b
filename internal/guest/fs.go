package guest

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/device"
)

// FS is a minimal in-guest filesystem backed by the VM's block device.
// File *data* lives in disk sectors (and therefore follows the device's
// two-layer snapshot cache); file *metadata* is part of the kernel state
// that is serialized into guest memory, so both halves are consistently
// captured by VM snapshots.
//
// Sector allocation is a bump allocator: snapshot restores roll the
// allocation cursor back, reclaiming sectors automatically — the simulated
// analogue of "writing incoming data to a file system ... is correctly
// handled" (§3.2).
type FS struct {
	disk *device.BlockDevice

	// files is in ascending path order, the order the image lists it in. A
	// restore to fewer files leaves the surplus entries in the spare
	// capacity, and unmarshal reuses their sector lists and path strings.
	files      []fileMeta
	nextSector uint64

	// enc is the encoding of the two fields above, as marshal last wrote it
	// or unmarshal last read it, and encValid says that it still is: every
	// mutator clears encValid before it changes either field. While it
	// holds, marshal appends enc, so a capture after a test case that leaves
	// the filesystem alone encodes nothing. encRead says that enc is the
	// section unmarshal last read, not one encoding rebuilt since: it lies in
	// the image of the capture the kernel last decoded, so a reread of that
	// capture skips it. A hydrate reuses what it decoded only for the
	// capture it decoded; any other decodes the section.
	enc      []byte
	encValid bool
	encRead  bool

	// hydrate, when set, re-syncs the owning kernel's state from guest
	// memory before any metadata access (see Kernel.hydrate); snapshot
	// restores defer that decode until someone actually looks. Nil for a
	// standalone FS.
	hydrate func()
}

// sync runs the owning kernel's lazy restore decode, if any, so metadata
// reads always observe post-restore state.
func (fs *FS) sync() {
	if fs.hydrate != nil {
		fs.hydrate()
	}
}

type fileMeta struct {
	path    string
	sectors []uint64
	size    int64
}

// NewFS creates a filesystem on disk.
func NewFS(disk *device.BlockDevice) *FS {
	return &FS{disk: disk}
}

// find returns the position of path in fs.files, or the one to insert it at.
func (fs *FS) find(path string) (int, bool) {
	return slices.BinarySearchFunc(fs.files, path, func(f fileMeta, path string) int { return strings.Compare(f.path, path) })
}

// WriteFile creates or replaces path with data.
func (fs *FS) WriteFile(path string, data []byte) error {
	fs.sync()
	fs.encValid = false
	nsec := (len(data) + device.SectorSize - 1) / device.SectorSize
	if fs.nextSector+uint64(nsec) > fs.disk.NumSectors() {
		return fmt.Errorf("fs: disk full writing %q (%d sectors)", path, nsec)
	}
	meta := fileMeta{path: path, size: int64(len(data))}
	buf := make([]byte, device.SectorSize)
	for i := 0; i < nsec; i++ {
		sn := fs.nextSector
		fs.nextSector++
		for j := range buf {
			buf[j] = 0
		}
		copy(buf, data[i*device.SectorSize:])
		if err := fs.disk.WriteSector(sn, buf); err != nil {
			return err
		}
		meta.sectors = append(meta.sectors, sn)
	}
	if i, ok := fs.find(path); ok {
		fs.files[i] = meta
	} else {
		fs.files = slices.Insert(fs.files, i, meta)
	}
	return nil
}

// AppendFile appends data to path, creating it if absent.
func (fs *FS) AppendFile(path string, data []byte) error {
	old, err := fs.ReadFile(path)
	if err != nil {
		old = nil
	}
	return fs.WriteFile(path, append(old, data...))
}

// ReadFile returns the contents of path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.sync()
	i, ok := fs.find(path)
	if !ok {
		return nil, fmt.Errorf("fs: %q: no such file", path)
	}
	meta := &fs.files[i]
	out := make([]byte, 0, meta.size)
	buf := make([]byte, device.SectorSize)
	remaining := meta.size
	for _, sn := range meta.sectors {
		if err := fs.disk.ReadSector(sn, buf); err != nil {
			return nil, err
		}
		n := int64(device.SectorSize)
		if n > remaining {
			n = remaining
		}
		out = append(out, buf[:n]...)
		remaining -= n
	}
	return out, nil
}

// Exists reports whether path exists.
func (fs *FS) Exists(path string) bool {
	fs.sync()
	_, ok := fs.find(path)
	return ok
}

// Size returns the size of path, or an error if absent.
func (fs *FS) Size(path string) (int64, error) {
	fs.sync()
	i, ok := fs.find(path)
	if !ok {
		return 0, fmt.Errorf("fs: %q: no such file", path)
	}
	return fs.files[i].size, nil
}

// List returns all paths in sorted order.
func (fs *FS) List() []string {
	fs.sync()
	out := make([]string, 0, len(fs.files))
	for i := range fs.files {
		out = append(out, fs.files[i].path)
	}
	return out
}

// marshal appends the FS metadata to w.
func (fs *FS) marshal(w *StateWriter) { w.buf = append(w.buf, fs.encoding()...) }

// encoding returns the encoding of the FS metadata, the cached one unless a
// mutator invalidated it.
func (fs *FS) encoding() []byte {
	if !fs.encValid {
		e := StateWriter{buf: fs.enc[:0]}
		e.U64(fs.nextSector)
		e.U32(uint32(len(fs.files)))
		for i := range fs.files {
			f := &fs.files[i]
			e.String(f.path)
			e.I64(f.size)
			e.U32(uint32(len(f.sectors)))
			for _, sn := range f.sectors {
				e.U64(sn)
			}
		}
		fs.enc, fs.encValid, fs.encRead = e.buf, true, false
	}
	return fs.enc
}

// unmarshal restores the FS metadata from r. A reread stream continues with
// the section unmarshal last read, if enc is still that section, and so with
// exactly the metadata the FS holds: there is nothing to decode, and it is
// skipped uncompared. Any other stream is decoded.
func (fs *FS) unmarshal(r *StateReader) {
	if r.reread && fs.encValid && fs.encRead {
		r.off += len(fs.enc)
		return
	}
	fs.encValid = false
	start := r.off
	fs.nextSector = r.U64()
	n := r.Count(4 + 8 + 4)
	fs.files = slices.Grow(fs.files[:0], n)[:n]
	for i := 0; i < n && r.err == nil; i++ {
		f := &fs.files[i]
		if path := r.View32(); f.path != string(path) {
			f.path = string(path)
		}
		if i > 0 && f.path <= fs.files[i-1].path {
			r.Fail("statebuf: file %q listed after %q", f.path, fs.files[i-1].path)
		}
		f.size = r.I64()
		f.sectors = f.sectors[:0]
		for j, ns := 0, r.Count(8); j < ns; j++ {
			f.sectors = append(f.sectors, r.U64())
		}
	}
	if r.err == nil {
		fs.enc, fs.encValid, fs.encRead = append(fs.enc[:0], r.buf[start:r.off]...), true, true
	}
}
