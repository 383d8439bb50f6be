package sparse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// segHeaderBytes encodes a segmented-container header with the given
// axis word and int64 fields (rows, cols, nnz, panels, indexOff).
func segHeaderBytes(axis uint32, fields ...int64) []byte {
	buf := make([]byte, segHeaderSize)
	copy(buf, segMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], segVersion)
	binary.LittleEndian.PutUint32(buf[8:], axis)
	for i, v := range fields {
		binary.LittleEndian.PutUint64(buf[12+8*i:], uint64(v))
	}
	return buf
}

func TestReadSegmentedHeaderBeyondInt32(t *testing.T) {
	// A header describing 10^10 nonzeros must round-trip through the
	// header-only reader without any allocation proportional to it.
	const rows, cols, nnz, panels = int64(3) << 31, int64(5) << 31, int64(10_000_000_000), int64(1) << 32
	h, err := ReadSegmentedHeader(bytes.NewReader(segHeaderBytes(0, rows, cols, nnz, panels, segHeaderSize)))
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows != rows || h.Cols != cols || h.NNZ != nnz || h.Panels != panels {
		t.Fatalf("header = %+v, want rows=%d cols=%d nnz=%d panels=%d", h, rows, cols, nnz, panels)
	}
}

func TestReadSegmentedHeaderRejects(t *testing.T) {
	good := segHeaderBytes(0, 8, 8, 0, 0, segHeaderSize)
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   append([]byte{'X'}, good[1:]...),
		"truncated":   good[:10],
		"column axis": segHeaderBytes(1, 8, 8, 0, 0, segHeaderSize),
		"overflow":    segHeaderBytes(0, -1, 8, 0, 0, segHeaderSize), // rows = 2^64-1 overflows int64
	}
	for name, data := range cases {
		if _, err := ReadSegmentedHeader(bytes.NewReader(data)); !errors.Is(err, ErrSegmentedFormat) {
			t.Errorf("%s: error = %v, want ErrSegmentedFormat", name, err)
		}
	}
}

func TestSegmentedRoundTripRows(t *testing.T) {
	m := randomCSR(testRNG(41), 37, 29, 0.2)
	for _, panel := range []int64{0, 5, 10, 37, 100} {
		path := filepath.Join(t.TempDir(), "m.csrs")
		if err := WriteSegmentedFile(path, m, panel); err != nil {
			t.Fatalf("panel=%d: %v", panel, err)
		}
		back, err := ReadSegmentedFile(path)
		if err != nil {
			t.Fatalf("panel=%d: %v", panel, err)
		}
		if !m.Equal(back, 0) {
			t.Fatalf("panel=%d: round trip changed the matrix", panel)
		}
	}
}

func TestSegmentedPanelsMatchSlices(t *testing.T) {
	m := randomCSR(testRNG(43), 30, 30, 0.3)
	path := filepath.Join(t.TempDir(), "m.csrs")
	if err := WriteSegmentedFile(path, m, 8); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Header()
	if h.Rows != 30 || h.Cols != 30 || h.NNZ != int64(m.NNZ()) || h.Panels != 4 {
		t.Fatalf("header = %+v", h)
	}
	for i, p := range s.Panels() {
		pan, err := s.LoadPanel(i)
		if err != nil {
			t.Fatal(err)
		}
		want := m.RowPanel(int(p.Start), int(p.End))
		if !pan.Equal(want, 0) {
			t.Fatalf("panel %d [%d,%d) differs from in-memory slice", i, p.Start, p.End)
		}
	}
}

func TestSegmentedHeaderOnly(t *testing.T) {
	m := randomCSR(testRNG(44), 16, 12, 0.4)
	path := filepath.Join(t.TempDir(), "m.csrs")
	if err := WriteSegmentedFile(path, m, 6); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := ReadSegmentedHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows != 16 || h.Cols != 12 || h.NNZ != int64(m.NNZ()) || h.Panels != 3 {
		t.Fatalf("header = %+v", h)
	}
}

func TestSegmentedWriterRejectsMisuse(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateSegmented(filepath.Join(dir, "m.csrs"), 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Discard()
	if err := w.AppendPanel(2, 5, randomCSR(testRNG(1), 3, 10, 0.5)); err == nil {
		t.Fatal("gap before first panel accepted")
	}
	if err := w.AppendPanel(0, 4, randomCSR(testRNG(1), 5, 10, 0.5)); err == nil {
		t.Fatal("wrong panel shape accepted")
	}
	if err := w.AppendPanel(0, 4, randomCSR(testRNG(1), 4, 10, 0.5)); err != nil {
		t.Fatal(err)
	}
	// Closing without covering the axis must fail and not leave the file.
	if err := w.Close(); err == nil {
		t.Fatal("partial coverage accepted at Close")
	}
	if _, err := os.Stat(filepath.Join(dir, "m.csrs")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed Close left the destination file behind")
	}
}

func TestSegmentedRejectsUnclosedWriter(t *testing.T) {
	// A crashed writer leaves the placeholder header (panels = -1); the
	// reader must reject it rather than allocate.
	dir := t.TempDir()
	w, err := CreateSegmented(filepath.Join(dir, "m.csrs"), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPanel(0, 4, randomCSR(testRNG(2), 4, 4, 0.5)); err != nil {
		t.Fatal(err)
	}
	w.bw.Flush()
	if _, err := OpenSegmented(w.tmp); !errors.Is(err, ErrSegmentedFormat) {
		t.Fatalf("unclosed file accepted: %v", err)
	}
	w.Discard()
}

func TestSegmentedRejectsCorruptIndex(t *testing.T) {
	m := randomCSR(testRNG(45), 12, 12, 0.4)
	path := filepath.Join(t.TempDir(), "m.csrs")
	if err := WriteSegmentedFile(path, m, 4); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Point the second index entry's offset past the end of the file.
	idxOff := int64(binary.LittleEndian.Uint64(data[12+4*8:]))
	binary.LittleEndian.PutUint64(data[idxOff+segIndexEntrySize+24:], uint64(len(data)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(path); !errors.Is(err, ErrSegmentedFormat) {
		t.Fatalf("corrupt index accepted: %v", err)
	}
}

func TestStreamPanelMatchesLoadPanel(t *testing.T) {
	m := randomCSR(testRNG(48), 26, 31, 0.3)
	path := filepath.Join(t.TempDir(), "m.csrs")
	if err := WriteSegmentedFile(path, m, 7); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegmented(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range s.Panels() {
		pan, err := s.LoadPanel(i)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := s.StreamPanel(i)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Rows() != pan.Rows {
			t.Fatalf("panel %d: stream rows %d, loaded rows %d", i, pr.Rows(), pan.Rows)
		}
		for r := 0; r < pan.Rows; r++ {
			idx, val, err := pr.NextRow()
			if err != nil {
				t.Fatal(err)
			}
			wi, wv := pan.Row(r)
			if len(idx) != len(wi) {
				t.Fatalf("panel %d row %d: nnz %d want %d", i, r, len(idx), len(wi))
			}
			for k := range idx {
				if idx[k] != wi[k] || val[k] != wv[k] {
					t.Fatalf("panel %d row %d entry %d differs", i, r, k)
				}
			}
		}
		if _, _, err := pr.NextRow(); err == nil {
			t.Fatalf("panel %d: stream did not end after %d rows", i, pan.Rows)
		}
	}
}

// TestReadFile pins the one loader: the same matrix comes back from
// Matrix Market text and from single- and multi-panel segmented
// containers, and files of neither format fail with an error.
func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	m := randomCSR(testRNG(46), 13, 9, 0.4)
	txt := filepath.Join(dir, "m.mtx")
	if err := WriteMatrixMarketFile(txt, m); err != nil {
		t.Fatal(err)
	}
	one, many := filepath.Join(dir, "one.csrs"), filepath.Join(dir, "many.csrs")
	if err := WriteSegmentedFile(one, m, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteSegmentedFile(many, m, 4); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{txt, one, many} {
		back, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if !m.Equal(back, 0) {
			t.Fatalf("%s: loaded matrix differs", filepath.Base(path))
		}
	}

	// A file in the retired flat CSRB layout: magic, version 1, and a
	// 2^60-row header that once drove an allocation.
	csrb := filepath.Join(dir, "old.csrb")
	old := binary.LittleEndian.AppendUint32([]byte("CSRB"), 1)
	old = binary.LittleEndian.AppendUint64(old, 1<<60)
	if err := os.WriteFile(csrb, append(old, make([]byte, 16)...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(csrb)
	if !errors.Is(err, ErrMatrixMarket) || !strings.Contains(err.Error(), csrb) ||
		!strings.Contains(err.Error(), "segmented") {
		t.Fatalf("CSRB file: error = %v, want ErrMatrixMarket naming the file and both formats", err)
	}

	// A row-axis file whose axis word says column panels.
	data, err := os.ReadFile(many)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], 1)
	cols := filepath.Join(dir, "cols.csrs")
	if err := os.WriteFile(cols, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(cols); !errors.Is(err, ErrSegmentedFormat) {
		t.Fatalf("axis word 1: error = %v, want ErrSegmentedFormat", err)
	}
}

// TestReadSegmentedFileAllocatesOnce checks that a whole-file load
// decodes panels into the final matrix: it allocates the matrix, the
// index and read buffers, not a second copy of every panel.
func TestReadSegmentedFileAllocatesOnce(t *testing.T) {
	m := randomCSR(testRNG(48), 4000, 4000, 0.01)
	path := filepath.Join(t.TempDir(), "m.csrs")
	for _, panel := range []int64{0, 500} {
		if err := WriteSegmentedFile(path, m, panel); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		back, err := ReadFile(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(back, 0) {
			t.Fatalf("panel %d: loaded matrix differs", panel)
		}
		// One matrix, ReadFile's 1 MiB Matrix Market buffer, one
		// panel read buffer, and 64 KiB for the index and the rest.
		matrix := uint64(8*(m.Rows+1) + 16*m.NNZ())
		limit := matrix + mmBufferSize + segChunkBytes + 64<<10
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("panel %d: loading a %d-byte matrix allocated %d bytes, want at most %d", panel, matrix, got, limit)
		}
	}
}

// TestSegmentedFormatStable reads a container written before the column
// axis was removed and writes the same bytes back: the on-disk format,
// version 2, did not change.
func TestSegmentedFormatStable(t *testing.T) {
	const golden = "testdata/rows_v2.csrs"
	want := NewCSR(5, 4)
	want.Ptr = []int{0, 2, 2, 3, 5, 6}
	want.Idx = []int{0, 3, 1, 0, 2, 3}
	want.Val = []float64{1, -2, 0.1, 3e-300, 7.5, -1e10}
	m, err := ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(want, 0) {
		t.Fatal("golden container read back a different matrix")
	}
	path := filepath.Join(t.TempDir(), "m.csrs")
	if err := WriteSegmentedFile(path, want, 3); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("WriteSegmentedFile no longer writes the golden bytes")
	}
}

func TestPanelSlices(t *testing.T) {
	m := randomCSR(testRNG(47), 20, 25, 0.3)
	rp := m.RowPanel(5, 12)
	if rp.Rows != 7 || rp.Cols != 25 {
		t.Fatalf("RowPanel shape %dx%d", rp.Rows, rp.Cols)
	}
	for i := 0; i < rp.Rows; i++ {
		idx, val := rp.Row(i)
		wi, wv := m.Row(i + 5)
		if len(idx) != len(wi) {
			t.Fatalf("row %d: nnz %d want %d", i, len(idx), len(wi))
		}
		for k := range idx {
			if idx[k] != wi[k] || val[k] != wv[k] {
				t.Fatalf("row %d entry %d mismatch", i, k)
			}
		}
	}
	cp := m.ColPanel(10, 18)
	if cp.Rows != 20 || cp.Cols != 8 {
		t.Fatalf("ColPanel shape %dx%d", cp.Rows, cp.Cols)
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 10; j < 18; j++ {
			if got, want := cp.At(i, j-10), m.At(i, j); got != want {
				t.Fatalf("ColPanel At(%d,%d) = %v want %v", i, j-10, got, want)
			}
		}
	}
}
