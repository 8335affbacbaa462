// Package faultio provides fault-injecting io.Writer / io.Reader
// wrappers for exercising persistence error paths: writers that fail
// or go short after a byte budget (simulating a full disk or a crash
// mid-write), and readers that error mid-stream. The torture
// tests drive every save/load/WAL code path through these to assert
// that persistence either succeeds, fails loudly with a typed error,
// or — for crash-shaped faults — leaves bytes that recovery handles.
package faultio

import (
	"errors"
	"io"
)

// ErrInjected is the default error returned by injected faults.
var ErrInjected = errors.New("faultio: injected failure")

// Writer passes bytes through to W until Budget bytes have been
// written, then fails. The failing call still forwards the bytes that
// fit the budget — exactly what a crash or a full disk leaves behind —
// and reports a short write with Err. Every later call fails without
// writing.
type Writer struct {
	W      io.Writer
	Budget int64 // bytes allowed through before failing
	Err    error // error to return; nil means ErrInjected

	written int64
}

func (w *Writer) Write(p []byte) (int, error) {
	fail := w.Err
	if fail == nil {
		fail = ErrInjected
	}
	remaining := w.Budget - w.written
	if remaining <= 0 {
		return 0, fail
	}
	if int64(len(p)) <= remaining {
		n, err := w.W.Write(p)
		w.written += int64(n)
		return n, err
	}
	n, err := w.W.Write(p[:remaining])
	w.written += int64(n)
	if err != nil {
		return n, err
	}
	return n, fail
}

// Reader yields bytes from R until Budget bytes have been read, then
// fails with Err (default ErrInjected) — a read fault, not an EOF.
type Reader struct {
	R      io.Reader
	Budget int64
	Err    error

	read int64
}

func (r *Reader) Read(p []byte) (int, error) {
	fail := r.Err
	if fail == nil {
		fail = ErrInjected
	}
	remaining := r.Budget - r.read
	if remaining <= 0 {
		return 0, fail
	}
	if int64(len(p)) > remaining {
		p = p[:remaining]
	}
	n, err := r.R.Read(p)
	r.read += int64(n)
	return n, err
}
