// Package droppederror is the fixture of TestNoDroppedErrors: every line
// marked "want droppederror" must be reported, and no other line.
package droppederror

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
)

func fail() error        { return errors.New("x") }
func pair() (int, error) { return 0, errors.New("x") }
func clean() int         { return 1 }

// Bad exercises the positives: errors dropped in expression statements, go
// statements, and defers.
func Bad(w *os.File) {
	fail()                  // want droppederror
	pair()                  // want droppederror
	go fail()               // want droppederror
	defer fail()            // want droppederror
	fmt.Fprintln(w, "data") // want droppederror
}

// Lost holds the two drops no other gate sees: an artifact written with its
// error ignored is still reported as written, and a trace whose final flush
// fails on a full disk loses its tail without a word.
func Lost(path string, svg []byte, w *bufio.Writer) {
	os.WriteFile(path, svg, 0o644) // want droppederror
	w.Flush()                      // want droppederror
}

// Good exercises the negatives: handled errors, explicit discards,
// non-error calls, and the documented cannot-fail writers.
func Good() error {
	if err := fail(); err != nil {
		return err
	}
	_ = fail()
	v, _ := pair()
	_ = v
	clean()
	fmt.Println("stdout is excluded")
	fmt.Fprintln(os.Stderr, "stderr is excluded")
	var sb strings.Builder
	sb.WriteString("builders cannot fail")
	var buf bytes.Buffer
	buf.WriteByte('x')
	fmt.Fprintf(&buf, "buffers cannot fail")
	return nil
}
