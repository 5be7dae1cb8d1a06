package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	sto, err := OpenFileStore(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "data")
	payload := bytes.Repeat([]byte{0xAB}, 200)
	mustAppend(t, f, payload)
	if err := sto.Close(); err != nil {
		t.Fatal(err)
	}

	// A second store over the same directory adopts the file.
	sto2, err := OpenFileStore(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sto2.Close()
	f2 := sto2.File("data")
	if f2 == nil {
		t.Fatal("reopened store lost the file")
	}
	if f2.Blocks() != 4 {
		t.Fatalf("reopened blocks %d, want 4", f2.Blocks())
	}
	got, err := sto2.NewSession().Read(f2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:200], payload) {
		t.Fatal("reopened store returned wrong bytes")
	}
}

// TestFileStoreSetContentsUnderConcurrentReader: a file rewritten with
// contents that never shrink — the directory under inserts — stays
// readable throughout; no reader may find it empty or short.
func TestFileStoreSetContentsUnderConcurrentReader(t *testing.T) {
	sto, err := OpenFileStore(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sto.Close()
	f := mustFile(t, sto, "dir")
	bs := testConfig().BlockSize
	if err := f.SetContents(make([]byte, bs)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fails int
	var firstErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.ReadRaw(0, 1); err != nil {
				if fails == 0 {
					firstErr = err
				}
				fails++
			}
		}
	}()
	var werr error
	for i := 0; i < 2000 && werr == nil; i++ {
		werr = f.SetContents(make([]byte, bs+i))
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if fails > 0 {
		t.Fatalf("%d reads failed during rewrites, first: %v", fails, firstErr)
	}
}

func TestFileStoreRejectsMisalignedFile(t *testing.T) {
	dir := t.TempDir()
	// 100 bytes is not a multiple of the 64-byte block size.
	if err := os.WriteFile(filepath.Join(dir, "bad"), make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(dir, testConfig()); err == nil {
		t.Fatal("misaligned file should be rejected as corrupt")
	}
}

func TestFileStoreRejectsBadNames(t *testing.T) {
	sto, err := OpenFileStore(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sto.Close()
	for _, name := range []string{"", ".", "..", "a/b", "../escape"} {
		if _, err := sto.NewFile(name); err == nil {
			t.Fatalf("name %q should be rejected", name)
		}
	}
}

func TestFileStoreCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "iq")
	sto, err := OpenFileStore(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sto.Close()
	mustAppend(t, mustFile(t, sto, "x"), []byte{1})
	if err := sto.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 64 {
		t.Fatalf("on-disk size %d, want one 64-byte block", fi.Size())
	}
}

func TestFileStoreIgnoresSubdirs(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	sto, err := OpenFileStore(dir, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sto.Close()
	if names := sto.Backend().Names(); len(names) != 0 {
		t.Fatalf("subdirectory adopted as file: %v", names)
	}
}

// TestSyncReportsEveryFailure: Sync must attempt every file and join
// all failures — a partial sync report that names only the first broken
// file leaves the durability of the rest unknown.
func TestSyncReportsEveryFailure(t *testing.T) {
	sto, err := OpenFileStore(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fb := sto.Backend().(*FileStore)
	for _, name := range []string{"a", "b", "c"} {
		mustAppend(t, mustFile(t, sto, name), []byte{1})
	}
	// Sabotage two of the three handles: Sync on a closed *os.File fails.
	fb.mu.Lock()
	fb.files["a"].h.Close()
	fb.files["c"].h.Close()
	fb.mu.Unlock()

	err = fb.Sync()
	if err == nil {
		t.Fatal("sync over closed handles should fail")
	}
	msg := err.Error()
	for _, name := range []string{"sync a", "sync c"} {
		if !strings.Contains(msg, name) {
			t.Fatalf("joined sync error should name %q, got: %v", name, err)
		}
	}
	if strings.Contains(msg, "sync b") {
		t.Fatalf("healthy file reported as failed: %v", err)
	}
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("joined error should preserve the causes via errors.Is: %v", err)
	}

	// Close aggregates too, and still closes/"forgets" every file.
	if err := fb.Close(); err == nil {
		t.Fatal("close over sabotaged handles should report the failures")
	}
	if len(fb.files) != 0 {
		t.Fatal("Close must clear the file table even after errors")
	}
}

func TestSessionErrorOnClosedBackend(t *testing.T) {
	// Reads against a closed file-backed store surface errors through the
	// session instead of panicking.
	sto, err := OpenFileStore(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := mustFile(t, sto, "t")
	mustAppend(t, f, make([]byte, 64))
	if err := sto.Close(); err != nil {
		t.Fatal(err)
	}
	s := sto.NewSession()
	if _, err := s.Read(f, 0, 1); err == nil {
		t.Fatal("read after close should fail")
	}
	if s.Err() == nil {
		t.Fatal("session should record the failure")
	}
}
