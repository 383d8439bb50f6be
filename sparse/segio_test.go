package sparse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestReadBinaryHeaderBeyondInt32(t *testing.T) {
	// A header describing 10^10 nonzeros must round-trip through the
	// header-only reader without any allocation proportional to it — the
	// full ReadBinary would (rightly) refuse or OOM.
	const rows, cols, nnz = int64(3) << 31, int64(5) << 31, int64(10_000_000_000)
	var buf bytes.Buffer
	buf.Write(binMagic[:])
	var u [8]byte
	binary.LittleEndian.PutUint32(u[:4], binVersion)
	buf.Write(u[:4])
	for _, v := range []int64{rows, cols, nnz} {
		binary.LittleEndian.PutUint64(u[:], uint64(v))
		buf.Write(u[:])
	}
	h, err := ReadBinaryHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows != rows || h.Cols != cols || h.NNZ != nnz {
		t.Fatalf("header = %+v, want rows=%d cols=%d nnz=%d", h, rows, cols, nnz)
	}
}

func TestReadBinaryHeaderRejects(t *testing.T) {
	var good bytes.Buffer
	if err := WriteBinary(&good, randomCSR(testRNG(33), 8, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	b := good.Bytes()
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte{'X'}, b[1:]...),
		"truncated": b[:10],
		"overflow": func() []byte {
			c := append([]byte(nil), b[:4+4+24]...)
			for i := 0; i < 8; i++ {
				c[8+i] = 0xFF // rows = 2^64-1 overflows int64
			}
			return c
		}(),
	}
	for name, data := range cases {
		if _, err := ReadBinaryHeader(bytes.NewReader(data)); !errors.Is(err, ErrBinaryFormat) {
			t.Errorf("%s: error = %v, want ErrBinaryFormat", name, err)
		}
	}
}

func TestSegmentedRoundTripRows(t *testing.T) {
	m := randomCSR(testRNG(41), 37, 29, 0.2)
	for _, panel := range []int64{0, 5, 10, 37, 100} {
		path := filepath.Join(t.TempDir(), "m.csrs")
		if err := WriteSegmentedFile(path, m, SegRows, panel); err != nil {
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

func TestSegmentedRoundTripCols(t *testing.T) {
	m := randomCSR(testRNG(42), 23, 41, 0.25)
	for _, panel := range []int64{0, 7, 13, 41} {
		path := filepath.Join(t.TempDir(), "m.csrs")
		if err := WriteSegmentedFile(path, m, SegCols, panel); err != nil {
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
	if err := WriteSegmentedFile(path, m, SegRows, 8); err != nil {
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
	if err := WriteSegmentedFile(path, m, SegCols, 4); err != nil {
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
	if h.Axis != SegCols || h.Rows != 16 || h.Cols != 12 || h.NNZ != int64(m.NNZ()) || h.Panels != 3 {
		t.Fatalf("header = %+v", h)
	}
}

func TestSegmentedWriterRejectsMisuse(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateSegmented(filepath.Join(dir, "m.csrs"), SegRows, 10, 10)
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
	// A column-axis file of a rows×0 matrix would have no panel to hold
	// its rows, and the reader refuses one.
	if w, err := CreateSegmented(filepath.Join(dir, "z.csrs"), SegCols, 5, 0); err == nil {
		w.Discard()
		t.Fatal("column-axis 5x0 matrix accepted")
	}
}

func TestSegmentedRejectsUnclosedWriter(t *testing.T) {
	// A crashed writer leaves the placeholder header (panels = -1); the
	// reader must reject it rather than allocate.
	dir := t.TempDir()
	w, err := CreateSegmented(filepath.Join(dir, "m.csrs"), SegRows, 4, 4)
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
	if err := WriteSegmentedFile(path, m, SegRows, 4); err != nil {
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
	if err := WriteSegmentedFile(path, m, SegRows, 7); err != nil {
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

func TestSniffContainer(t *testing.T) {
	dir := t.TempDir()
	m := randomCSR(testRNG(46), 6, 6, 0.5)
	seg := filepath.Join(dir, "m.csrs")
	bin := filepath.Join(dir, "m.csrb")
	txt := filepath.Join(dir, "m.mtx")
	if err := WriteSegmentedFile(seg, m, SegRows, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryFile(bin, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txt, []byte("%%MatrixMarket matrix coordinate real general\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{seg: "segmented", bin: "binary", txt: ""} {
		got, err := SniffContainer(path)
		if err != nil || got != want {
			t.Errorf("SniffContainer(%s) = %q, %v; want %q", filepath.Base(path), got, err, want)
		}
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
