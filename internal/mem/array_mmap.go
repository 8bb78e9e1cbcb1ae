//go:build unix && !race

package mem

import (
	"fmt"
	"syscall"
)

// newArray returns a zeroed array of n bytes in an anonymous private
// mapping, outside the Go heap. The kernel backs a page only once it is
// written, so the array costs resident memory for the pages a run
// touches, and the collector neither scans it nor counts it toward its
// heap goal. freeArray unmaps it.
func newArray(n uint64) []byte {
	d, err := syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping a %d-byte image: %v", n, err))
	}
	return d
}

// freeArray unmaps an array from newArray.
func freeArray(d []byte) {
	if err := syscall.Munmap(d); err != nil {
		panic(fmt.Sprintf("mem: unmapping a %d-byte image: %v", len(d), err))
	}
}
