package sparse

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := randomCSR(testRNG(21), 17, 13, 0.25)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back, 0) {
		t.Fatal("round trip changed the matrix")
	}
}

func TestMatrixMarketFileRoundTrip(t *testing.T) {
	m := randomCSR(testRNG(22), 9, 9, 0.3)
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := WriteMatrixMarketFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarketFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back, 0) {
		t.Fatal("file round trip changed the matrix")
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
% a comment
3 3 2
1 2
3 3
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 1 || m.At(2, 2) != 1 || m.NNZ() != 2 {
		t.Fatalf("pattern parse wrong: nnz=%d", m.NNZ())
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 5.0
2 1 2.0
3 2 7.0
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5 {
		t.Fatalf("symmetric expansion nnz = %d, want 5", m.NNZ())
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 2 || m.At(1, 2) != 7 || m.At(2, 1) != 7 || m.At(0, 0) != 5 {
		t.Fatal("symmetric mirror entries wrong")
	}
}

func TestMatrixMarketRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"%%MatrixMarket tensor coordinate real general\n1 1 0\n",
		"%%MatrixMarket matrix array real general\n1 1\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\nnot a size\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n", // out of range
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", // truncated
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n", // bad coord
	}
	for i, in := range bad {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); !errors.Is(err, ErrMatrixMarket) {
			t.Errorf("case %d: want ErrMatrixMarket, got %v", i, err)
		}
	}
}

func TestMatrixMarketDuplicatesMerged(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 3
1 1 1.0
1 1 2.5
2 2 4.0
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 || m.At(0, 0) != 3.5 {
		t.Fatalf("duplicates not merged: nnz=%d at(0,0)=%g", m.NNZ(), m.At(0, 0))
	}
}

// TestMatrixMarketRejectsOversizedHeader pins the size-line bounds: rows
// past 32-bit indices are refused, and an nnz the body does not back
// reserves nothing proportional to it, so both fail with an error rather
// than a makeslice panic.
func TestMatrixMarketRejectsOversizedHeader(t *testing.T) {
	for _, in := range []string{
		"%%MatrixMarket matrix coordinate real general\n4611686018427387904 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 4611686018427387904\n",
		"%%MatrixMarket matrix coordinate real general\n1 2147483648 0\n",
	} {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); !errors.Is(err, ErrMatrixMarket) {
			t.Errorf("%q: want ErrMatrixMarket, got %v", in, err)
		}
	}
}
