package lsm

import (
	"os"
	"syscall"
)

// fdatasync makes f's written data durable without forcing out metadata
// the data does not depend on (timestamps). When a write changed neither
// the file's size nor its block mapping — a recycled WAL segment — the
// file system has no journal commit to wait for.
func fdatasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
