package manifest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEntryLineRoundTrip(t *testing.T) {
	e := Entry{Seq: 42, Kind: "trace", Name: "seg-00000042.lkseg", Size: 12345, CRC: 0xdeadbeef}
	line := e.Line()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("Line() missing trailing newline: %q", line)
	}
	got, ok := ParseLine(strings.TrimSuffix(line, "\n"))
	if !ok {
		t.Fatalf("ParseLine rejected own output %q", line)
	}
	if got != e {
		t.Fatalf("round trip: got %+v want %+v", got, e)
	}
}

// The line format is what every existing store directory holds on
// disk; this pins the exact rendering so a refactor cannot silently
// orphan them.
func TestEntryLineFormatPinned(t *testing.T) {
	e := Entry{Seq: 3, Kind: "full", Name: "seg-00000003.ckpt", Size: 100, CRC: 0x0000abcd}
	const want = "v1 3 full 100 0000abcd seg-00000003.ckpt bdb0347e\n"
	if got := e.Line(); got != want {
		t.Fatalf("Line() = %q, want %q", got, want)
	}
}

func TestParseLineRejects(t *testing.T) {
	good := Entry{Seq: 1, Kind: "full", Name: "a", Size: 1, CRC: 1}.Line()
	goodBody := strings.TrimSuffix(good, "\n")
	cases := map[string]string{
		"empty":        "",
		"no crc field": "v1 1 full 1 00000001 a",
		"bad crc":      strings.TrimSuffix(goodBody, goodBody[len(goodBody)-8:]) + "00000000",
		"bad version":  strings.Replace(goodBody, "v1 ", "v2 ", 1),
		"torn":         goodBody[:len(goodBody)/2],
	}
	for name, line := range cases {
		if _, ok := ParseLine(line); ok {
			t.Errorf("%s: ParseLine accepted %q", name, line)
		}
	}
	if _, ok := ParseLine(goodBody); !ok {
		t.Fatalf("control: ParseLine rejected valid line %q", goodBody)
	}
}

func TestParseValidPrefix(t *testing.T) {
	a := Entry{Seq: 1, Kind: "full", Name: "a", Size: 1, CRC: 1}
	b := Entry{Seq: 2, Kind: "append", Name: "b", Size: 2, CRC: 2}
	raw := a.Line() + b.Line()
	torn := raw + b.Line()[:5] // crash mid-append
	entries, valid := Parse([]byte(torn))
	if len(entries) != 2 || valid != len(raw) {
		t.Fatalf("Parse torn: got %d entries validLen %d, want 2 entries validLen %d", len(entries), valid, len(raw))
	}
	if entries[0] != a || entries[1] != b {
		t.Fatalf("Parse entries = %+v, want [%+v %+v]", entries, a, b)
	}
	// A damaged middle line truncates everything after it.
	damaged := a.Line() + "garbage line here\n" + b.Line()
	entries, valid = Parse([]byte(damaged))
	if len(entries) != 1 || valid != len(a.Line()) {
		t.Fatalf("Parse damaged: got %d entries validLen %d, want 1 entry validLen %d", len(entries), valid, len(a.Line()))
	}
}

func TestAppendLoadReplaceRepair(t *testing.T) {
	dir := t.TempDir()
	fsys := OSFS{}
	a := Entry{Seq: 1, Kind: "full", Name: "a", Size: 1, CRC: 1}
	b := Entry{Seq: 2, Kind: "append", Name: "b", Size: 2, CRC: 2}
	if err := AppendEntry(fsys, dir, a); err != nil {
		t.Fatal(err)
	}
	if err := AppendEntry(fsys, dir, b); err != nil {
		t.Fatal(err)
	}
	got := Load(fsys, dir)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Load = %+v, want [%+v %+v]", got, a, b)
	}

	// Tear the tail, then Repair: the torn bytes must be gone so the
	// next append cannot concatenate into them.
	path := filepath.Join(dir, Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, "v1 3 app"...), 0o666); err != nil {
		t.Fatal(err)
	}
	Repair(fsys, dir)
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(repaired) != string(raw) {
		t.Fatalf("Repair left %q, want %q", repaired, raw)
	}

	if err := Replace(fsys, dir, []Entry{b}); err != nil {
		t.Fatal(err)
	}
	got = Load(fsys, dir)
	if len(got) != 1 || got[0] != b {
		t.Fatalf("Load after Replace = %+v, want [%+v]", got, b)
	}
}

func TestWriteFileAtomicAndRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	fsys := OSFS{}
	if err := WriteFileAtomic(fsys, dir, "payload", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "payload"))
	if err != nil || string(data) != "hello" {
		t.Fatalf("payload = %q, %v", data, err)
	}
	// Simulate a crash between temp write and rename.
	if err := os.WriteFile(filepath.Join(dir, TmpPrefix+"orphan"), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	RemoveTemps(fsys, dir, names)
	if _, err := os.Stat(filepath.Join(dir, TmpPrefix+"orphan")); !os.IsNotExist(err) {
		t.Fatalf("temp orphan survived RemoveTemps: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "payload")); err != nil {
		t.Fatalf("RemoveTemps removed a committed file: %v", err)
	}
}
