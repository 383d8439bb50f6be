package sparse

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Segmented CSR container: the one binary matrix format, used by the
// out-of-core engine, the R-MAT stream generator and the dataset cache.
// It stores the matrix as an ordered sequence of row panels (a range of
// rows, all columns), each an independently loadable CSR blob, plus a
// trailing panel index so any panel is reachable with one seek and no
// scan of the file. All counts and offsets are int64: the format is meant
// for matrices whose CSR exceeds physical RAM, where 32-bit element
// counts are the first thing to break.
//
// Layout (little endian):
//
//	magic "CSRS" | version u32 | axis u32 (0: row panels)
//	rows i64 | cols i64 | nnz i64 | panels i64 | indexOff i64
//	panel payloads...
//	index at indexOff: panels × { start i64 | end i64 | nnz i64 | off i64 }
//
// Each panel payload is a local CSR body over rows [start, end) with
// global column indices:
//
//	ptr (end−start+1) × i64 | idx nnz_p × i64 | val nnz_p × f64
//
// Panels are contiguous, ascending, and cover the rows exactly; the
// header's panels/nnz/indexOff fields are patched when the writer closes,
// so a crashed writer leaves a file whose panel count of −1 never parses.
// The axis word once also allowed column panels (1); the writer stores 0
// and the reader rejects any other value.

var segMagic = [4]byte{'C', 'S', 'R', 'S'}

const segVersion = 2

// segHeaderSize is the fixed byte length of the header.
const segHeaderSize = 4 + 4 + 4 + 5*8

// segIndexEntrySize is the byte length of one panel index entry.
const segIndexEntrySize = 4 * 8

// ErrSegmentedFormat is wrapped by all segmented-container parse errors.
var ErrSegmentedFormat = errors.New("sparse: invalid segmented CSR data")

// SegHeader is the fixed-size header of a segmented container.
type SegHeader struct {
	Rows   int64
	Cols   int64
	NNZ    int64
	Panels int64
}

// SegPanel is one entry of the panel index.
type SegPanel struct {
	// Start and End bound the panel's rows, half-open.
	Start, End int64
	// NNZ is the panel's stored entry count.
	NNZ int64
	// Off is the absolute file offset of the panel payload.
	Off int64
}

// payloadBytes returns the byte length of the panel's on-disk body.
func (p SegPanel) payloadBytes() int64 {
	return 8*(p.End-p.Start+1) + 16*p.NNZ
}

// fits reports whether the panel's body fits in room bytes, checked
// without computing a size that could overflow.
func (p SegPanel) fits(room int64) bool {
	rows := p.End - p.Start
	return rows < room/8 && p.NNZ <= (room-8*(rows+1))/16
}

// SegWriter streams panels into a segmented container. Create one with
// CreateSegmented, append row panels in order, and Close. The writer
// holds O(panels) index memory and O(1) payload memory beyond the panel
// being appended — it never sees the whole matrix.
type SegWriter struct {
	f      *os.File
	bw     *bufio.Writer
	path   string
	tmp    string
	off    int64
	h      SegHeader
	index  []SegPanel
	closed bool
}

// CreateSegmented opens a segmented-container writer for a rows×cols
// matrix. The file is written to path atomically: payloads stream into
// path+".tmp" and the rename happens only when Close succeeds. On any
// error path call Discard to clean up.
func CreateSegmented(path string, rows, cols int64) (*SegWriter, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %dx%d", rows, cols)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &SegWriter{
		f: f, bw: bufio.NewWriterSize(f, segChunkBytes),
		path: path, tmp: tmp,
		h: SegHeader{Rows: rows, Cols: cols},
	}
	// Placeholder header; panels/nnz/indexOff are patched by Close.
	if err := w.writeHeader(-1, -1, -1); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	w.off = segHeaderSize
	return w, nil
}

// writeHeader emits the header with the given mutable fields.
func (w *SegWriter) writeHeader(panels, nnz, indexOff int64) error {
	var buf [segHeaderSize]byte
	copy(buf[0:4], segMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], segVersion)
	for i, v := range []int64{w.h.Rows, w.h.Cols, nnz, panels, indexOff} {
		binary.LittleEndian.PutUint64(buf[12+8*i:], uint64(v))
	}
	_, err := w.bw.Write(buf[:])
	return err
}

// AppendPanel writes the next panel, the (end−start)×cols slab m of rows
// [start, end). Panels must be appended in order, contiguously from 0;
// Close verifies they cover the rows exactly.
func (w *SegWriter) AppendPanel(start, end int64, m *CSR) error {
	if w.closed {
		return fmt.Errorf("sparse: AppendPanel on closed segmented writer")
	}
	prev := int64(0)
	if n := len(w.index); n > 0 {
		prev = w.index[n-1].End
	}
	if start != prev || end <= start || end > w.h.Rows {
		return fmt.Errorf("sparse: panel [%d,%d) out of order (previous end %d, %d rows)",
			start, end, prev, w.h.Rows)
	}
	if int64(m.Rows) != end-start || int64(m.Cols) != w.h.Cols {
		return fmt.Errorf("sparse: panel [%d,%d) has shape %dx%d, want %dx%d",
			start, end, m.Rows, m.Cols, end-start, w.h.Cols)
	}
	var u64 [8]byte
	put := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := w.bw.Write(u64[:])
		return err
	}
	for _, p := range m.Ptr {
		if err := put(uint64(p)); err != nil {
			return err
		}
	}
	for _, j := range m.Idx {
		if err := put(uint64(j)); err != nil {
			return err
		}
	}
	for _, v := range m.Val {
		if err := put(math.Float64bits(v)); err != nil {
			return err
		}
	}
	pan := SegPanel{Start: start, End: end, NNZ: int64(m.NNZ()), Off: w.off}
	w.index = append(w.index, pan)
	w.off += pan.payloadBytes()
	w.h.NNZ += pan.NNZ
	return nil
}

// Close writes the panel index, patches the header, and atomically moves
// the file into place. The panels must cover the rows exactly (a matrix
// without rows needs no panels). On any failure the temporary file is
// removed and nothing is left at path.
func (w *SegWriter) Close() error {
	if w.closed {
		return nil
	}
	covered := int64(0)
	if n := len(w.index); n > 0 {
		covered = w.index[n-1].End
	}
	if covered != w.h.Rows {
		w.Discard()
		return fmt.Errorf("sparse: panels cover [0,%d) of %d rows", covered, w.h.Rows)
	}
	indexOff := w.off
	var u64 [8]byte
	for _, p := range w.index {
		for _, v := range []int64{p.Start, p.End, p.NNZ, p.Off} {
			binary.LittleEndian.PutUint64(u64[:], uint64(v))
			if _, err := w.bw.Write(u64[:]); err != nil {
				w.Discard()
				return err
			}
		}
	}
	if err := w.bw.Flush(); err != nil {
		w.Discard()
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		w.Discard()
		return err
	}
	w.bw.Reset(w.f)
	if err := w.writeHeader(int64(len(w.index)), w.h.NNZ, indexOff); err != nil {
		w.Discard()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.Discard()
		return err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		w.closed = true
		return err
	}
	w.closed = true
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return err
	}
	return nil
}

// Discard abandons the write, removing the temporary file. Safe to call
// after Close (a no-op then) and more than once.
func (w *SegWriter) Discard() {
	if w.closed {
		return
	}
	w.closed = true
	w.f.Close()
	os.Remove(w.tmp)
}

// SegFile is an open segmented container: the header and panel index are
// resident, the payloads stay on disk until LoadPanel. Panel loads are
// independent pread calls, safe for concurrent use.
type SegFile struct {
	f     *os.File
	size  int64
	h     SegHeader
	index []SegPanel
}

// OpenSegmented opens a segmented container and reads its panel index.
func OpenSegmented(path string) (*SegFile, error) {
	//vet:ignore filehandle -- newSegFile stores the handle in the returned SegFile; Close owns it
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := newSegFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// newSegFile parses the header and index of an open file.
func newSegFile(f *os.File) (*SegFile, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return nil, fmt.Errorf("%w: not a regular file; a container is read by offset", ErrSegmentedFormat)
	}
	var buf [segHeaderSize]byte
	if _, err := f.ReadAt(buf[:], 0); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrSegmentedFormat, err)
	}
	h, indexOff, err := parseSegHeader(buf[:])
	if err != nil {
		return nil, err
	}
	if h.Panels < 0 || indexOff < segHeaderSize || indexOff > st.Size() ||
		h.Panels > (st.Size()-indexOff)/segIndexEntrySize {
		return nil, fmt.Errorf("%w: index out of bounds (unclosed writer?)", ErrSegmentedFormat)
	}
	s := &SegFile{f: f, size: st.Size(), h: h, index: make([]SegPanel, h.Panels)}
	ibuf := make([]byte, h.Panels*segIndexEntrySize)
	if _, err := f.ReadAt(ibuf, indexOff); err != nil {
		return nil, fmt.Errorf("%w: truncated index: %v", ErrSegmentedFormat, err)
	}
	// The payloads lie back to back, as the writer lays them, from the
	// header to the index: every count a reader allocates by is then
	// backed by bytes of the file.
	prev, off, nnz := int64(0), int64(segHeaderSize), int64(0)
	for i := range s.index {
		e := ibuf[i*segIndexEntrySize:]
		p := SegPanel{
			Start: int64(binary.LittleEndian.Uint64(e[0:])),
			End:   int64(binary.LittleEndian.Uint64(e[8:])),
			NNZ:   int64(binary.LittleEndian.Uint64(e[16:])),
			Off:   int64(binary.LittleEndian.Uint64(e[24:])),
		}
		if p.Start != prev || p.End <= p.Start || p.End > h.Rows || p.NNZ < 0 ||
			p.Off != off || !p.fits(indexOff-off) {
			return nil, fmt.Errorf("%w: panel %d index entry invalid", ErrSegmentedFormat, i)
		}
		prev, off, nnz = p.End, off+p.payloadBytes(), nnz+p.NNZ
		s.index[i] = p
	}
	if prev != h.Rows {
		return nil, fmt.Errorf("%w: panels cover [0,%d) of %d rows", ErrSegmentedFormat, prev, h.Rows)
	}
	if off != indexOff || nnz != h.NNZ {
		return nil, fmt.Errorf("%w: panels hold %d bytes and %d entries, header says %d and %d",
			ErrSegmentedFormat, off-segHeaderSize, nnz, indexOff-segHeaderSize, h.NNZ)
	}
	return s, nil
}

// parseSegHeader decodes the fixed header, returning it and the index
// offset.
func parseSegHeader(buf []byte) (SegHeader, int64, error) {
	var h SegHeader
	if [4]byte(buf[0:4]) != segMagic {
		return h, 0, fmt.Errorf("%w: bad magic %q", ErrSegmentedFormat, buf[0:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != segVersion {
		return h, 0, fmt.Errorf("%w: unsupported version %d", ErrSegmentedFormat, v)
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != 0 {
		return h, 0, fmt.Errorf("%w: unsupported axis %d (only row panels)", ErrSegmentedFormat, v)
	}
	fields := [5]int64{}
	for i := range fields {
		v := binary.LittleEndian.Uint64(buf[12+8*i:])
		if v > math.MaxInt64 {
			return h, 0, fmt.Errorf("%w: header field overflows int64", ErrSegmentedFormat)
		}
		fields[i] = int64(v)
	}
	h.Rows, h.Cols, h.NNZ, h.Panels = fields[0], fields[1], fields[2], fields[3]
	if h.Rows < 0 || h.Cols < 0 || h.NNZ < 0 {
		return h, 0, fmt.Errorf("%w: negative dimension", ErrSegmentedFormat)
	}
	return h, fields[4], nil
}

// ReadSegmentedHeader parses only the fixed header of a segmented
// container — dimensions, nnz and panel count in O(1) memory, no index.
func ReadSegmentedHeader(r io.Reader) (SegHeader, error) {
	var buf [segHeaderSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return SegHeader{}, fmt.Errorf("%w: truncated header: %v", ErrSegmentedFormat, err)
	}
	h, _, err := parseSegHeader(buf[:])
	return h, err
}

// Header returns the container's header.
func (s *SegFile) Header() SegHeader { return s.h }

// Panels returns the panel index in row order. The slice is shared;
// callers must not modify it.
func (s *SegFile) Panels() []SegPanel { return s.index }

// LoadPanel reads panel i into memory as an (end−start)×cols matrix and
// validates it.
func (s *SegFile) LoadPanel(i int) (*CSR, error) {
	if i < 0 || i >= len(s.index) {
		return nil, fmt.Errorf("sparse: panel %d out of range [0,%d)", i, len(s.index))
	}
	p := s.index[i]
	rows := p.End - p.Start
	m := &CSR{
		Rows: int(rows), Cols: int(s.h.Cols),
		Ptr: make([]int, rows+1),
		Idx: make([]int, p.NNZ),
		Val: make([]float64, p.NNZ),
	}
	buf := make([]byte, min(segChunkBytes, p.payloadBytes()))
	if err := s.decodePanel(i, buf, m.Ptr, m.Idx, m.Val); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: panel %d: %v", ErrSegmentedFormat, i, err)
	}
	if k := firstNonFinite(m.Val); k >= 0 {
		return nil, fmt.Errorf("%w: panel %d: non-finite value at position %d", ErrSegmentedFormat, i, k)
	}
	return m, nil
}

// segChunkBytes is the read buffer a panel is decoded through, and the
// write buffer of a SegWriter.
const segChunkBytes = 1 << 16

// decodePanel reads panel i's pointer, column and value words into ptr,
// idx and val, which the caller sizes to the panel, through buf.
func (s *SegFile) decodePanel(i int, buf []byte, ptr, idx []int, val []float64) error {
	off := s.index[i].Off
	err := readInts(s.f, off, buf, ptr)
	if err == nil {
		err = readInts(s.f, off+8*int64(len(ptr)), buf, idx)
	}
	if err == nil {
		err = readFloats(s.f, off+8*int64(len(ptr)+len(idx)), buf, val)
	}
	if err != nil {
		return fmt.Errorf("%w: truncated panel %d: %v", ErrSegmentedFormat, i, err)
	}
	return nil
}

// readInts fills dst with the little-endian words at off in r, reading
// len(buf)/8 of them at a time.
func readInts(r io.ReaderAt, off int64, buf []byte, dst []int) error {
	for len(dst) > 0 {
		n := min(len(dst), len(buf)/8)
		if _, err := r.ReadAt(buf[:8*n], off); err != nil {
			return err
		}
		for k := range n {
			dst[k] = int(binary.LittleEndian.Uint64(buf[8*k:]))
		}
		dst, off = dst[n:], off+8*int64(n)
	}
	return nil
}

// readFloats is readInts for float64 bit patterns.
func readFloats(r io.ReaderAt, off int64, buf []byte, dst []float64) error {
	for len(dst) > 0 {
		n := min(len(dst), len(buf)/8)
		if _, err := r.ReadAt(buf[:8*n], off); err != nil {
			return err
		}
		for k := range n {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*k:]))
		}
		dst, off = dst[n:], off+8*int64(n)
	}
	return nil
}

// Close releases the underlying file.
func (s *SegFile) Close() error { return s.f.Close() }

// PanelRows streams one panel's rows in order without materializing the
// panel: only the pointer array is resident, each row's entries are read
// on demand into reused scratch buffers. This is what a k-way row merge
// over many panels needs — k pointer arrays plus one row per stream,
// instead of k whole panels.
type PanelRows struct {
	s       *SegFile
	idxOff  int64
	valOff  int64
	ptr     []int64
	next    int
	bufIdx  []int
	bufVal  []float64
	scratch []byte
}

// StreamPanel opens a row stream over panel i. The stream reads from the
// container's file handle; it needs no Close of its own (closing the
// SegFile invalidates it).
func (s *SegFile) StreamPanel(i int) (*PanelRows, error) {
	if i < 0 || i >= len(s.index) {
		return nil, fmt.Errorf("sparse: panel %d out of range [0,%d)", i, len(s.index))
	}
	p := s.index[i]
	rows := p.End - p.Start
	buf := make([]byte, 8*(rows+1))
	if _, err := s.f.ReadAt(buf, p.Off); err != nil {
		return nil, fmt.Errorf("%w: truncated panel %d: %v", ErrSegmentedFormat, i, err)
	}
	pr := &PanelRows{
		s:      s,
		idxOff: p.Off + 8*(rows+1),
		valOff: p.Off + 8*(rows+1) + 8*p.NNZ,
		ptr:    make([]int64, rows+1),
	}
	for k := range pr.ptr {
		v := binary.LittleEndian.Uint64(buf[8*k:])
		if v > math.MaxInt64 {
			return nil, fmt.Errorf("%w: panel %d ptr overflows int64", ErrSegmentedFormat, i)
		}
		pr.ptr[k] = int64(v)
	}
	for k := 0; k < int(rows); k++ {
		if pr.ptr[k] > pr.ptr[k+1] || pr.ptr[k] < 0 {
			return nil, fmt.Errorf("%w: panel %d ptr not monotone", ErrSegmentedFormat, i)
		}
	}
	if pr.ptr[0] != 0 || pr.ptr[rows] != p.NNZ {
		return nil, fmt.Errorf("%w: panel %d ptr does not span nnz", ErrSegmentedFormat, i)
	}
	return pr, nil
}

// Rows returns the number of rows the stream yields.
func (pr *PanelRows) Rows() int { return len(pr.ptr) - 1 }

// RowNNZ returns the entry count of row r — available for every row up
// front (the pointer array is resident), independent of the cursor.
func (pr *PanelRows) RowNNZ(r int) int { return int(pr.ptr[r+1] - pr.ptr[r]) }

// NextRow returns the next row's column indices and values. The slices
// are reused by the following call; callers needing them longer must
// copy. After the last row it returns io.EOF.
func (pr *PanelRows) NextRow() (idx []int, val []float64, err error) {
	if pr.next >= pr.Rows() {
		return nil, nil, io.EOF
	}
	lo, hi := pr.ptr[pr.next], pr.ptr[pr.next+1]
	pr.next++
	n := int(hi - lo)
	if cap(pr.bufIdx) < n {
		pr.bufIdx = make([]int, n)
		pr.bufVal = make([]float64, n)
		pr.scratch = make([]byte, 8*n)
	}
	pr.bufIdx, pr.bufVal = pr.bufIdx[:n], pr.bufVal[:n]
	if n == 0 {
		return pr.bufIdx, pr.bufVal, nil
	}
	err = readInts(pr.s.f, pr.idxOff+8*lo, pr.scratch, pr.bufIdx)
	if err == nil {
		err = readFloats(pr.s.f, pr.valOff+8*lo, pr.scratch, pr.bufVal)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: truncated row data: %v", ErrSegmentedFormat, err)
	}
	return pr.bufIdx, pr.bufVal, nil
}

// WriteSegmentedFile writes m as a segmented container with panels of at
// most panel rows, a convenience for tests and for re-exporting in-memory
// matrices. panel <= 0 selects one panel for all rows.
func WriteSegmentedFile(path string, m *CSR, panel int64) error {
	rows := int64(m.Rows)
	if panel <= 0 || panel > rows {
		panel = rows
	}
	w, err := CreateSegmented(path, rows, int64(m.Cols))
	if err != nil {
		return err
	}
	for start := int64(0); start < rows; start += panel {
		end := min(start+panel, rows)
		p := m
		if start > 0 || end < rows {
			p = m.RowPanel(int(start), int(end))
		}
		if err := w.AppendPanel(start, end, p); err != nil {
			w.Discard()
			return err
		}
	}
	return w.Close()
}

// ReadSegmentedFile assembles the whole matrix from a segmented
// container — the in-memory escape hatch for inputs that do fit.
func ReadSegmentedFile(path string) (*CSR, error) {
	s, err := OpenSegmented(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.readAll()
}

// readAll decodes every panel straight into one matrix through a single
// read buffer, so a load holds the matrix and little besides.
func (s *SegFile) readAll() (*CSR, error) {
	m := &CSR{
		Rows: int(s.h.Rows), Cols: int(s.h.Cols),
		Ptr: make([]int, s.h.Rows+1),
		Idx: make([]int, s.h.NNZ),
		Val: make([]float64, s.h.NNZ),
	}
	var buf []byte
	for i, p := range s.index {
		if int64(len(buf)) < min(segChunkBytes, p.payloadBytes()) {
			buf = make([]byte, min(segChunkBytes, p.payloadBytes()))
		}
		// The panel's pointers land on the matrix's, panel-local: its
		// first overwrites the previous panel's last, base.
		base := m.Ptr[p.Start]
		ptr := m.Ptr[p.Start : p.End+1]
		if err := s.decodePanel(i, buf, ptr, m.Idx[base:base+int(p.NNZ)], m.Val[base:base+int(p.NNZ)]); err != nil {
			return nil, err
		}
		if ptr[0] != 0 || ptr[len(ptr)-1] != int(p.NNZ) {
			return nil, fmt.Errorf("%w: panel %d ptr does not span its %d entries", ErrSegmentedFormat, i, p.NNZ)
		}
		for k := range ptr {
			ptr[k] += base
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSegmentedFormat, err)
	}
	if k := firstNonFinite(m.Val); k >= 0 {
		return nil, fmt.Errorf("%w: non-finite value at position %d", ErrSegmentedFormat, k)
	}
	return m, nil
}
