package fsio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeString is an AtomicWriteFile body that writes s.
func writeString(s string) func(io.Writer) (int64, error) {
	return func(w io.Writer) (int64, error) {
		n, err := io.WriteString(w, s)
		return int64(n), err
	}
}

// names lists the entries of dir.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// AtomicWriteFile installs the file under its name — a new one, or in
// place of an old one — returns the byte count, and leaves no temp file.
func TestAtomicWriteFileInstalls(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	for _, body := range []string{"first version", "second"} {
		n, err := AtomicWriteFile(path, ".model-*", writeString(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(body)) || string(got) != body {
			t.Fatalf("wrote %q (%d bytes reported), file holds %q", body, n, got)
		}
		if ls := names(t, dir); len(ls) != 1 || ls[0] != "model.bin" {
			t.Fatalf("directory holds %v after the write, want only model.bin", ls)
		}
	}
}

// When the body or the rename fails, AtomicWriteFile returns the error,
// leaves whatever held the name untouched, and removes its temp file.
func TestAtomicWriteFileCleansUpOnFailure(t *testing.T) {
	dir := t.TempDir()

	// A non-empty directory under the name: the rename must fail.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if n, err := AtomicWriteFile(blocked, ".blocked-*", writeString("payload")); err == nil || n != 0 {
		t.Fatalf("renaming over a non-empty directory: n=%d err=%v, want an error", n, err)
	}
	if fi, err := os.Stat(filepath.Join(blocked, "inside")); err != nil || !fi.IsDir() {
		t.Fatalf("the directory under the name was disturbed: %v", err)
	}

	// A body that fails: the old file stays.
	path := filepath.Join(dir, "model.bin")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	_, err := AtomicWriteFile(path, ".model-*", func(w io.Writer) (int64, error) {
		io.WriteString(w, "half a ")
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing body: err = %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failing body replaced the file with %q", got)
	}

	for _, name := range names(t, dir) {
		if strings.HasPrefix(name, ".") {
			t.Errorf("temp file %s left behind", name)
		}
	}
}
