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

// Segmented CSR container: the on-disk format of the out-of-core engine.
// Where the flat binary container (binio.go) stores one CSR body that a
// reader must swallow whole, the segmented container stores the matrix as
// an ordered sequence of panels — row panels (a range of rows, all
// columns) or column panels (all rows, a range of columns) — each an
// independently loadable CSR blob, plus a trailing panel index so any
// panel is reachable with one seek and no scan of the file. All counts
// and offsets are int64: the format is meant for matrices whose CSR
// exceeds physical RAM, where 32-bit element counts are the first thing
// to break.
//
// Layout (little endian):
//
//	magic "CSRS" | version u32 | axis u32
//	rows i64 | cols i64 | nnz i64 | panels i64 | indexOff i64
//	panel payloads...
//	index at indexOff: panels × { start i64 | end i64 | nnz i64 | off i64 }
//
// Each panel payload is a local CSR body:
//
//	ptr (extent+1) × i64 | idx nnz_p × i64 | val nnz_p × f64
//
// where extent is end−start rows (row axis, column indices global) or the
// full row count (column axis, column indices local to the panel). Panels
// are contiguous, ascending, and cover the axis exactly; the header's
// panels/nnz/indexOff fields are patched when the writer closes, so a
// crashed writer leaves a file whose panel count of −1 never parses.

var segMagic = [4]byte{'C', 'S', 'R', 'S'}

const segVersion = 2

// segHeaderSize is the fixed byte length of the header.
const segHeaderSize = 4 + 4 + 4 + 5*8

// segIndexEntrySize is the byte length of one panel index entry.
const segIndexEntrySize = 4 * 8

// ErrSegmentedFormat is wrapped by all segmented-container parse errors.
var ErrSegmentedFormat = errors.New("sparse: invalid segmented CSR data")

// SegAxis selects the partitioning axis of a segmented container.
type SegAxis uint32

const (
	// SegRows partitions by row panels: each panel holds a contiguous
	// row range with global column indices.
	SegRows SegAxis = 0
	// SegCols partitions by column panels: each panel holds every row
	// restricted to a contiguous column range, with column indices local
	// to the panel (subtract nothing; add Start to globalize).
	SegCols SegAxis = 1
)

func (a SegAxis) String() string {
	if a == SegCols {
		return "cols"
	}
	return "rows"
}

// SegHeader is the fixed-size header of a segmented container.
type SegHeader struct {
	Axis   SegAxis
	Rows   int64
	Cols   int64
	NNZ    int64
	Panels int64
}

// extent returns the length of the partitioned axis.
func (h SegHeader) extent() int64 {
	if h.Axis == SegCols {
		return h.Cols
	}
	return h.Rows
}

// SegPanel is one entry of the panel index.
type SegPanel struct {
	// Start and End bound the panel's extent on the partitioned axis,
	// half-open.
	Start, End int64
	// NNZ is the panel's stored entry count.
	NNZ int64
	// Off is the absolute file offset of the panel payload.
	Off int64
}

// payloadRows returns the number of rows the panel's pointer array spans.
func (p SegPanel) payloadRows(h SegHeader) int64 {
	if h.Axis == SegCols {
		return h.Rows
	}
	return p.End - p.Start
}

// payloadBytes returns the byte length of the panel's on-disk body.
func (p SegPanel) payloadBytes(h SegHeader) int64 {
	return 8*(p.payloadRows(h)+1) + 16*p.NNZ
}

// fits reports whether the panel's body fits in room bytes, checked
// without computing a size that could overflow.
func (p SegPanel) fits(h SegHeader, room int64) bool {
	rows := p.payloadRows(h)
	return rows < room/8 && p.NNZ <= (room-8*(rows+1))/16
}

// SegWriter streams panels into a segmented container. Create one with
// CreateSegmented, append panels in axis order, and Close. The writer
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
// matrix partitioned along axis. The file is written to path atomically:
// payloads stream into path+".tmp" and the rename happens only when
// Close succeeds. On any error path call Discard to clean up.
func CreateSegmented(path string, axis SegAxis, rows, cols int64) (*SegWriter, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %dx%d", rows, cols)
	}
	if axis != SegRows && axis != SegCols {
		return nil, fmt.Errorf("sparse: unknown segment axis %d", axis)
	}
	if axis == SegCols && cols == 0 && rows > 0 {
		// Only a panel's pointer array stores the rows; the reader
		// refuses a row count no file bytes back.
		return nil, fmt.Errorf("sparse: a %dx0 matrix has no column panel to hold its rows", rows)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &SegWriter{
		f: f, bw: bufio.NewWriterSize(f, 1<<20),
		path: path, tmp: tmp,
		h: SegHeader{Axis: axis, Rows: rows, Cols: cols},
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
	binary.LittleEndian.PutUint32(buf[8:12], uint32(w.h.Axis))
	for i, v := range []int64{w.h.Rows, w.h.Cols, nnz, panels, indexOff} {
		binary.LittleEndian.PutUint64(buf[12+8*i:], uint64(v))
	}
	_, err := w.bw.Write(buf[:])
	return err
}

// AppendPanel writes the next panel, covering [start, end) on the
// partitioned axis. Panels must be appended in order, contiguously from
// 0; Close verifies they cover the axis exactly. The panel matrix m is a
// (end−start)×cols slab for the row axis, or a rows×(end−start) slab with
// local column indices for the column axis.
func (w *SegWriter) AppendPanel(start, end int64, m *CSR) error {
	if w.closed {
		return fmt.Errorf("sparse: AppendPanel on closed segmented writer")
	}
	prev := int64(0)
	if n := len(w.index); n > 0 {
		prev = w.index[n-1].End
	}
	if start != prev || end <= start || end > w.h.extent() {
		return fmt.Errorf("sparse: panel [%d,%d) out of order (previous end %d, axis extent %d)",
			start, end, prev, w.h.extent())
	}
	wantRows, wantCols := end-start, w.h.Cols
	if w.h.Axis == SegCols {
		wantRows, wantCols = w.h.Rows, end-start
	}
	if int64(m.Rows) != wantRows || int64(m.Cols) != wantCols {
		return fmt.Errorf("sparse: panel [%d,%d) has shape %dx%d, want %dx%d",
			start, end, m.Rows, m.Cols, wantRows, wantCols)
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
	w.off += pan.payloadBytes(w.h)
	w.h.NNZ += pan.NNZ
	return nil
}

// Close writes the panel index, patches the header, and atomically moves
// the file into place. The panels must cover the axis exactly (an empty
// axis needs no panels).
func (w *SegWriter) Close() error {
	if w.closed {
		return nil
	}
	covered := int64(0)
	if n := len(w.index); n > 0 {
		covered = w.index[n-1].End
	}
	if covered != w.h.extent() {
		w.Discard()
		return fmt.Errorf("sparse: panels cover [0,%d) of axis extent %d", covered, w.h.extent())
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
	return os.Rename(w.tmp, w.path)
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
	if h.Axis == SegCols && h.Panels == 0 && h.Rows > 0 {
		return nil, fmt.Errorf("%w: %d rows but no column panel", ErrSegmentedFormat, h.Rows)
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
		if p.Start != prev || p.End <= p.Start || p.End > h.extent() || p.NNZ < 0 ||
			p.Off != off || !p.fits(h, indexOff-off) {
			return nil, fmt.Errorf("%w: panel %d index entry invalid", ErrSegmentedFormat, i)
		}
		prev, off, nnz = p.End, off+p.payloadBytes(h), nnz+p.NNZ
		s.index[i] = p
	}
	if prev != h.extent() {
		return nil, fmt.Errorf("%w: panels cover [0,%d) of axis extent %d", ErrSegmentedFormat, prev, h.extent())
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
	h.Axis = SegAxis(binary.LittleEndian.Uint32(buf[8:12]))
	if h.Axis != SegRows && h.Axis != SegCols {
		return h, 0, fmt.Errorf("%w: unknown axis %d", ErrSegmentedFormat, h.Axis)
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

// Panels returns the panel index in axis order. The slice is shared;
// callers must not modify it.
func (s *SegFile) Panels() []SegPanel { return s.index }

// LoadPanel reads panel i into memory and validates it: a
// (end−start)×cols matrix for the row axis, rows×(end−start) with local
// columns for the column axis.
func (s *SegFile) LoadPanel(i int) (*CSR, error) {
	if i < 0 || i >= len(s.index) {
		return nil, fmt.Errorf("sparse: panel %d out of range [0,%d)", i, len(s.index))
	}
	p := s.index[i]
	extent := p.End - p.Start
	rows, cols := extent, s.h.Cols
	if s.h.Axis == SegCols {
		rows, cols = s.h.Rows, extent
	}
	nptr := rows + 1
	if s.h.Axis == SegCols {
		nptr = s.h.Rows + 1
	}
	buf := make([]byte, p.payloadBytes(s.h))
	if _, err := s.f.ReadAt(buf, p.Off); err != nil {
		return nil, fmt.Errorf("%w: truncated panel %d: %v", ErrSegmentedFormat, i, err)
	}
	m := &CSR{
		Rows: int(rows), Cols: int(cols),
		Ptr: make([]int, nptr),
		Idx: make([]int, p.NNZ),
		Val: make([]float64, p.NNZ),
	}
	off := 0
	for k := range m.Ptr {
		m.Ptr[k] = int(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	for k := range m.Idx {
		m.Idx[k] = int(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	for k := range m.Val {
		m.Val[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: panel %d: %v", ErrSegmentedFormat, i, err)
	}
	if k := firstNonFinite(m.Val); k >= 0 {
		return nil, fmt.Errorf("%w: panel %d: non-finite value at position %d", ErrSegmentedFormat, i, k)
	}
	return m, nil
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
	rows := p.payloadRows(s.h)
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
	b := pr.scratch[:8*n]
	if _, err := pr.s.f.ReadAt(b, pr.idxOff+8*lo); err != nil {
		return nil, nil, fmt.Errorf("%w: truncated row data: %v", ErrSegmentedFormat, err)
	}
	for k := 0; k < n; k++ {
		pr.bufIdx[k] = int(binary.LittleEndian.Uint64(b[8*k:]))
	}
	if _, err := pr.s.f.ReadAt(b, pr.valOff+8*lo); err != nil {
		return nil, nil, fmt.Errorf("%w: truncated row data: %v", ErrSegmentedFormat, err)
	}
	for k := 0; k < n; k++ {
		pr.bufVal[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
	}
	return pr.bufIdx, pr.bufVal, nil
}

// WriteSegmentedFile writes m as a segmented container with panels of at
// most panel rows (or columns, for SegCols), a convenience for tests and
// for re-exporting in-memory matrices. panel <= 0 selects one panel for
// the whole axis.
func WriteSegmentedFile(path string, m *CSR, axis SegAxis, panel int64) error {
	extent := int64(m.Rows)
	if axis == SegCols {
		extent = int64(m.Cols)
	}
	if panel <= 0 || panel > extent {
		panel = extent
	}
	w, err := CreateSegmented(path, axis, int64(m.Rows), int64(m.Cols))
	if err != nil {
		return err
	}
	for start := int64(0); start < extent; start += panel {
		end := start + panel
		if end > extent {
			end = extent
		}
		var slab *CSR
		if axis == SegRows {
			slab = m.RowPanel(int(start), int(end))
		} else {
			slab = m.ColPanel(int(start), int(end))
		}
		if err := w.AppendPanel(start, end, slab); err != nil {
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
	h := s.Header()
	if h.Axis == SegRows {
		m := NewCSR(int(h.Rows), int(h.Cols))
		m.Idx = make([]int, 0, h.NNZ)
		m.Val = make([]float64, 0, h.NNZ)
		row := 0
		for i := range s.index {
			pan, err := s.LoadPanel(i)
			if err != nil {
				return nil, err
			}
			for r := 0; r < pan.Rows; r++ {
				idx, val := pan.Row(r)
				m.AppendRow(row, idx, val)
				row++
			}
		}
		return m, nil
	}
	// Column axis: count row populations across panels, then fill.
	rowNNZ := make([]int, h.Rows)
	panels := make([]*CSR, len(s.index))
	for i := range s.index {
		pan, err := s.LoadPanel(i)
		if err != nil {
			return nil, err
		}
		panels[i] = pan
		for r := 0; r < pan.Rows; r++ {
			rowNNZ[r] += pan.RowNNZ(r)
		}
	}
	m := NewCSRWithRowSizes(int(h.Rows), int(h.Cols), rowNNZ)
	fill := make([]int, h.Rows)
	for i, pan := range panels {
		off := int(s.index[i].Start)
		for r := 0; r < pan.Rows; r++ {
			idx, val := pan.Row(r)
			dstIdx, dstVal := m.Row(r)
			for k := range idx {
				dstIdx[fill[r]] = idx[k] + off
				dstVal[fill[r]] = val[k]
				fill[r]++
			}
		}
	}
	return m, nil
}

// SniffContainer reports which binary container format the file holds:
// "segmented" (CSRS), "binary" (CSRB), or "" for anything else. It reads
// only the four magic bytes.
func SniffContainer(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return "", nil
	}
	switch magic {
	case segMagic:
		return "segmented", nil
	case binMagic:
		return "binary", nil
	}
	return "", nil
}
