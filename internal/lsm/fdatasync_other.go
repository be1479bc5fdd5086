//go:build !linux

package lsm

import "os"

// fdatasync falls back to a full fsync where the platform offers no
// data-only variant through the standard library.
func fdatasync(f *os.File) error { return f.Sync() }
