package main

import (
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"github.com/hpcsched/gensched/internal/durable"
)

// countFS wraps the real filesystem behind the store's public FS seam
// and counts what the durable layer asks of it: fsyncs and their
// latency, bytes written, and snapshot writes (bytes, and time from
// opening the temporary file to the rename that publishes it). With
// elideSync the fsyncs are counted but not issued, which is what a
// tmpfs data directory costs.
type countFS struct {
	base      durable.FS
	elideSync bool

	mu         sync.Mutex
	syncs      int
	syncTime   time.Duration
	writeBytes int64
	snaps      int
	snapBytes  int64
	snapTime   time.Duration
	snapOpened map[string]time.Time
}

func newCountFS(elideSync bool) *countFS {
	return &countFS{base: durable.OS(), elideSync: elideSync, snapOpened: make(map[string]time.Time)}
}

func isSnapshotTmp(path string) bool { return filepath.Base(path) == "snapshot.tmp" }

func (c *countFS) MkdirAll(path string, perm fs.FileMode) error { return c.base.MkdirAll(path, perm) }
func (c *countFS) ReadDir(dir string) ([]fs.DirEntry, error)    { return c.base.ReadDir(dir) }
func (c *countFS) ReadFile(path string) ([]byte, error)         { return c.base.ReadFile(path) }
func (c *countFS) Remove(path string) error                     { return c.base.Remove(path) }

func (c *countFS) OpenFile(path string, flag int, perm fs.FileMode) (durable.File, error) {
	f, err := c.base.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	snap := isSnapshotTmp(path)
	if snap {
		c.mu.Lock()
		c.snapOpened[path] = time.Now()
		c.mu.Unlock()
	}
	return &countFile{File: f, fs: c, snap: snap}, nil
}

func (c *countFS) OpenDir(path string) (durable.File, error) {
	f, err := c.base.OpenDir(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Rename(oldPath, newPath string) error {
	err := c.base.Rename(oldPath, newPath)
	if err == nil && isSnapshotTmp(oldPath) {
		c.mu.Lock()
		if t0, ok := c.snapOpened[oldPath]; ok {
			c.snaps++
			c.snapTime += time.Since(t0)
			delete(c.snapOpened, oldPath)
		}
		c.mu.Unlock()
	}
	return err
}

type countFile struct {
	durable.File
	fs   *countFS
	snap bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.writeBytes += int64(n)
	if f.snap {
		f.fs.snapBytes += int64(n)
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *countFile) Sync() error {
	if f.fs.elideSync {
		f.fs.mu.Lock()
		f.fs.syncs++
		f.fs.mu.Unlock()
		return nil
	}
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.syncTime += d
	f.fs.mu.Unlock()
	return err
}
