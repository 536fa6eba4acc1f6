package persist

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic publishes what write produces under path, all or nothing:
// the bytes go to a temp file in path's directory (the same filesystem, so
// the rename is atomic), are fsynced, and only then renamed over path. A
// reader — a -models-dir watcher, a -resume, a crash-recovery scan — sees
// the previous file or the complete new one, never a torn one, and every
// error path removes the temp file. The temp name is dot-prefixed and ends
// in neither ".bundle" nor ".ckpt", so directory scans for those skip it.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	// CreateTemp's 0600 would lock out a daemon serving under another user;
	// published artifacts get the mode os.Create gave them.
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	// The data must be on disk before the rename makes it visible under the
	// final name, or a crash could expose an empty-but-well-named file.
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
