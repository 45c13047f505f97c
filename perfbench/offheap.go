package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap is a fixed-capacity append-only buffer of pointer-free records in
// anonymous memory outside the Go heap. The query windows keep their
// bookkeeping (one sample per query, one pending check per reject) there:
// kept on the heap, it grows the live heap the collector paces against as
// the window goes on, so collections get rarer and the server faster over
// the window (on query-churn, whose own live heap is a few MiB, p50 fell
// 40% from the first to the last tenth of a 30 s window). Pages are touched
// only as records are added, so peak RSS grows with the records kept, not
// with the capacity.
type offHeap[T any] struct {
	mem  []byte
	recs []T
}

func newOffHeap[T any](n int) (*offHeap[T], error) {
	var z T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(z)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d records: %w", n, err)
	}
	return &offHeap[T]{mem: mem, recs: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0]}, nil
}

// add appends x and reports whether there was room for it.
func (b *offHeap[T]) add(x T) bool {
	if len(b.recs) == cap(b.recs) {
		return false
	}
	b.recs = append(b.recs, x)
	return true
}

// free unmaps the buffer; its records must not be used afterwards.
func (b *offHeap[T]) free() {
	if b != nil {
		syscall.Munmap(b.mem)
		b.recs = nil
	}
}
