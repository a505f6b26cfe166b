// Package manifest holds the torn-write-safe directory discipline of
// lockdoc's durable store (internal/segstore): a MANIFEST file of
// self-checksummed entry lines plus the temp + fsync + rename idiom for
// publishing files atomically.
//
// The invariants, identical for every store built on this package:
//
//   - a payload file is written to a temp name, fsynced, and renamed
//     into place, so a torn write never occupies a final name,
//   - each manifest line carries its own CRC over everything before it,
//     so a crash mid-append tears at most the final line, which every
//     reader detects and ignores,
//   - the manifest is only ever extended by appending whole lines or
//     replaced wholesale via the same temp + rename idiom, so its valid
//     prefix is always a consistent point-in-time directory state.
//
// File operations go through the FS interface so chaos tests can
// interpose torn writes, failed renames and transient faults
// (internal/faultinject implements it structurally); OSFS is the real
// implementation with the fsync discipline the invariants require.
package manifest

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	// Name is the manifest file's name inside a store directory.
	Name = "MANIFEST"
	// TmpPrefix marks in-flight temp files; leftovers from a crash are
	// garbage by construction and may be removed on open.
	TmpPrefix = "tmp-"

	lineVersion = "v1"
)

// FS is the file-operation surface a store runs on. Every
// implementation must make WriteFile and AppendFile durable (fsync
// before returning) — the crash-safety argument depends on it. Paths
// are full paths; stores do the joining.
type FS interface {
	MkdirAll(dir string) error
	// WriteFile creates (or truncates) name with data and fsyncs it.
	WriteFile(name string, data []byte) error
	// AppendFile appends data to name (creating it if absent) and
	// fsyncs it.
	AppendFile(name string, data []byte) error
	Rename(oldpath, newpath string) error
	ReadFile(name string) ([]byte, error)
	// ReadDir returns the entry names (not paths) of dir.
	ReadDir(dir string) ([]string, error)
	Remove(name string) error
}

// OSFS is the real filesystem, with the fsync discipline the stores
// require: file contents are synced before WriteFile/AppendFile
// return, and Rename syncs the parent directory so the new name
// survives a crash.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o777) }

func (OSFS) WriteFile(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (OSFS) AppendFile(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (OSFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	// Sync the directory so the rename itself is durable. Best-effort:
	// some filesystems refuse directory fsync, and the rename already
	// happened.
	if d, err := os.Open(filepath.Dir(newpath)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

func (OSFS) Remove(name string) error { return os.Remove(name) }

// Entry is one manifest line: a published file and the evidence needed
// to verify it. Kind is a store-defined single token ("full", "trace",
// ...); Name must contain no whitespace.
type Entry struct {
	Seq  uint64
	Kind string
	Name string // file name inside the store directory
	Size int64
	CRC  uint32 // IEEE CRC32 of the payload
}

// Line renders the entry self-checksummed: the final field is the CRC
// of everything before it, so a torn tail line is detectable on its
// own.
func (e Entry) Line() string {
	body := fmt.Sprintf("%s %d %s %d %08x %s", lineVersion, e.Seq, e.Kind, e.Size, e.CRC, e.Name)
	return fmt.Sprintf("%s %08x\n", body, crc32.ChecksumIEEE([]byte(body)))
}

// ParseLine inverts Line (sans trailing newline); ok is false for
// torn, damaged or foreign lines.
func ParseLine(line string) (Entry, bool) {
	body, crcHex, found := cutLast(line, " ")
	if !found {
		return Entry{}, false
	}
	lineCRC, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil || uint32(lineCRC) != crc32.ChecksumIEEE([]byte(body)) {
		return Entry{}, false
	}
	f := strings.Fields(body)
	if len(f) != 6 || f[0] != lineVersion {
		return Entry{}, false
	}
	seq, err1 := strconv.ParseUint(f[1], 10, 64)
	size, err2 := strconv.ParseInt(f[3], 10, 64)
	crc, err3 := strconv.ParseUint(f[4], 16, 32)
	if err1 != nil || err2 != nil || err3 != nil {
		return Entry{}, false
	}
	return Entry{Seq: seq, Kind: f[2], Name: f[5], Size: size, CRC: uint32(crc)}, true
}

func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// Parse parses raw's valid prefix: entries up to the first torn or
// damaged line, in order, plus the byte length of that prefix.
// Payloads are not verified here — that is the store's job.
func Parse(raw []byte) (entries []Entry, validLen int) {
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasSuffix(line, "\n") {
			break // torn final line: the append that wrote it never finished
		}
		e, ok := ParseLine(strings.TrimSuffix(line, "\n"))
		if !ok {
			break // damaged line: nothing after it is trustworthy
		}
		entries = append(entries, e)
		validLen += len(line)
	}
	return entries, validLen
}

// Load reads and parses dir's manifest, returning its valid prefix. A
// missing manifest is an empty store, not an error.
func Load(fsys FS, dir string) []Entry {
	raw, err := fsys.ReadFile(filepath.Join(dir, Name))
	if err != nil {
		return nil
	}
	entries, _ := Parse(raw)
	return entries
}

// AppendEntry extends dir's manifest with one entry line. The caller
// must have published the entry's payload first: the append is the
// commit point.
func AppendEntry(fsys FS, dir string, e Entry) error {
	return fsys.AppendFile(filepath.Join(dir, Name), []byte(e.Line()))
}

// Replace atomically rewrites dir's manifest to exactly entries, via
// temp + fsync + rename, erasing any torn tail along the way.
func Replace(fsys FS, dir string, entries []Entry) error {
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(e.Line())
	}
	return WriteFileAtomic(fsys, dir, Name, []byte(b.String()))
}

// WriteFileAtomic publishes data under dir/name via temp + fsync +
// rename, so a crash at any point leaves either the old content or the
// new — never a torn file under the final name.
func WriteFileAtomic(fsys FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, TmpPrefix+name)
	if err := fsys.WriteFile(tmp, data); err != nil {
		return err
	}
	return fsys.Rename(tmp, filepath.Join(dir, name))
}

// RemoveTemps sweeps leftover temp files from a crash mid-write; they
// were never committed, so they are garbage. Best-effort.
func RemoveTemps(fsys FS, dir string, names []string) {
	for _, name := range names {
		if strings.HasPrefix(name, TmpPrefix) {
			_ = fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// Repair truncates dir's manifest back to its valid prefix
// (atomically, via temp + rename) so a torn tail line from a crashed
// append cannot concatenate with — and so corrupt — the next line
// appended after restart. Best-effort: a failed repair leaves the
// manifest as it was, and every reader already ignores the torn tail.
func Repair(fsys FS, dir string) {
	path := filepath.Join(dir, Name)
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return
	}
	_, valid := Parse(raw)
	if valid == len(raw) {
		return
	}
	if fsys.WriteFile(filepath.Join(dir, TmpPrefix+Name), raw[:valid]) == nil {
		_ = fsys.Rename(filepath.Join(dir, TmpPrefix+Name), path)
	}
}
