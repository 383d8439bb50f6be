package sparse

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Matrix Market exchange format support (the format both the Florida Suite
// Sparse collection and SNAP exports commonly use). Only the "matrix
// coordinate" container is supported, with real / integer / pattern fields
// and general / symmetric symmetry — the variants that occur in the paper's
// dataset families.

// ErrMatrixMarket is wrapped by all Matrix Market parse errors.
var ErrMatrixMarket = errors.New("sparse: invalid Matrix Market input")

// mmReserveMax caps the entries ReadMatrixMarket reserves from the size
// line's nnz before reading any of them.
const mmReserveMax = 1 << 20

// mmBufferSize is ReadMatrixMarket's read buffer.
const mmBufferSize = 1 << 20

// ReadMatrixMarket parses a sparse matrix in Matrix Market coordinate
// format. Pattern matrices get unit values; symmetric matrices are expanded
// to full storage (mirror entries added for off-diagonal elements).
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, mmBufferSize)

	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrMatrixMarket, err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		// A binary file has no line structure: quote only its start.
		banner := strings.TrimSpace(header)
		return nil, fmt.Errorf("%w: bad banner %q", ErrMatrixMarket, banner[:min(len(banner), 64)])
	}
	if fields[2] != "coordinate" {
		return nil, fmt.Errorf("%w: unsupported container %q (only coordinate)", ErrMatrixMarket, fields[2])
	}
	field, symmetry := fields[3], fields[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("%w: unsupported field %q", ErrMatrixMarket, field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("%w: unsupported symmetry %q", ErrMatrixMarket, symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("%w: missing size line", ErrMatrixMarket)
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("%w: bad size line %q", ErrMatrixMarket, line)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrMatrixMarket)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("%w: size %dx%d exceeds 32-bit indices", ErrMatrixMarket, rows, cols)
	}

	// The size line is untrusted: reserve at most mmReserveMax entries up
	// front and let append grow past it as entries actually arrive.
	coo := NewCOO(rows, cols, min(nnz, mmReserveMax))
	read := 0
	for read < nnz {
		line, err := br.ReadString('\n')
		if line == "" && err != nil {
			return nil, fmt.Errorf("%w: expected %d entries, got %d", ErrMatrixMarket, nnz, read)
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		parts := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(parts) < want {
			return nil, fmt.Errorf("%w: short entry %q", ErrMatrixMarket, line)
		}
		i, err1 := strconv.Atoi(parts[0])
		j, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: bad coordinates %q", ErrMatrixMarket, line)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad value %q", ErrMatrixMarket, line)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: non-finite value %q", ErrMatrixMarket, line)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrMatrixMarket, i, j, rows, cols)
		}
		coo.Add(i-1, j-1, v)
		if symmetry == "symmetric" && i != j {
			coo.Add(j-1, i-1, v)
		}
		read++
	}
	return coo.ToCSR(), nil
}

// WriteMatrixMarket writes m in Matrix Market "coordinate real general"
// format with 1-based indices.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.Idx[k]+1, m.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarketFile reads a Matrix Market file from disk.
func ReadMatrixMarketFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrixMarket(f)
}

// WriteMatrixMarketFile writes m to a Matrix Market file on disk.
func WriteMatrixMarketFile(path string, m *CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMatrixMarket(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
