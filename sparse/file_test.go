//go:build linux

package sparse

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// pipePath returns a /dev/fd path that reads what write sends through a
// pipe, the way a shell hands `cmd | tool -f /dev/stdin` its input.
func pipePath(t *testing.T, write func(f *os.File) error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		err := write(w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		done <- err
	}()
	t.Cleanup(func() {
		if err := <-done; err != nil {
			t.Errorf("pipe writer: %v", err)
		}
	})
	// Cleanups run last-in first-out: closing the read end first ends a
	// writer the reader left blocked.
	t.Cleanup(func() { r.Close() })
	return fmt.Sprintf("/dev/fd/%d", r.Fd())
}

// TestReadFileFromPipe loads Matrix Market text through a pipe, which
// cannot seek, and refuses a segmented container there by name.
func TestReadFileFromPipe(t *testing.T) {
	m := randomCSR(testRNG(47), 300, 200, 0.05)
	back, err := ReadFile(pipePath(t, func(f *os.File) error { return WriteMatrixMarket(f, m) }))
	if err != nil {
		t.Fatalf("Matrix Market through a pipe: %v", err)
	}
	if !m.Equal(back, 0) {
		t.Fatal("Matrix Market through a pipe: loaded matrix differs")
	}

	seg := filepath.Join(t.TempDir(), "m.csrs")
	if err := WriteSegmentedFile(seg, m, 64); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadFile(pipePath(t, func(f *os.File) error {
		// The reader stops after the magic, so this write may fail
		// once the pipe is closed.
		f.Write(data)
		return nil
	}))
	if !errors.Is(err, ErrSegmentedFormat) {
		t.Fatalf("segmented container through a pipe: error = %v, want ErrSegmentedFormat", err)
	}
}
