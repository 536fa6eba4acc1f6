package persist

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a writer that fails midway leaves the previous
// destination intact and no temp file behind; a writer that succeeds replaces
// the destination whole.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bundle")
	if err := os.WriteFile(path, []byte("previous build"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a bun")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the writer's error", err)
	}
	assertOnly := func(want string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "model.bundle" {
			t.Fatalf("directory holds %v, want only model.bundle (a temp file was left behind)", entries)
		}
		if got, _ := os.ReadFile(path); string(got) != want {
			t.Fatalf("destination holds %q, want %q", got, want)
		}
	}
	assertOnly("previous build")

	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("next build"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	assertOnly("next build")

	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x.ckpt"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
