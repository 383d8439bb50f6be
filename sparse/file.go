package sparse

import (
	"bufio"
	"fmt"
	"os"
)

// ReadFile loads a matrix file in either format the repository reads: a
// segmented container, recognised by its "CSRS" magic, or Matrix Market
// text, which is what anything else must be. It is the one loader behind
// every tool that takes a matrix path. The magic is peeked, not read and
// sought back over, so Matrix Market text also loads from a pipe or FIFO
// (/dev/stdin); a segmented container is read by offset and must be a
// regular file.
func ReadFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, mmBufferSize)
	if magic, _ := br.Peek(len(segMagic)); string(magic) == string(segMagic[:]) {
		s, err := newSegFile(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		m, err := s.readAll()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return m, nil
	}
	// ReadMatrixMarket wraps br in a reader of the same size, which
	// bufio returns as br itself: the peeked bytes are not lost.
	m, err := ReadMatrixMarket(br)
	if err != nil {
		return nil, fmt.Errorf("%s: neither a segmented CSR container nor Matrix Market: %w", path, err)
	}
	return m, nil
}
