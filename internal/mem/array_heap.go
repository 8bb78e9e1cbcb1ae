//go:build !unix || race

package mem

// newArray returns a zeroed array of n bytes on the Go heap. Under the
// race detector the images stay there so that the detector sees their
// bytes, which it does not in a mapping of the program's own; platforms
// without mmap keep them there too.
func newArray(n uint64) []byte { return make([]byte, n) }

// freeArray leaves the array to the garbage collector.
func freeArray([]byte) {}
