package gf256

import (
	"errors"
	"fmt"
)

// Matrix is a dense row-major matrix over GF(2^8). Its row operations use
// the Compact slice kernels: coding matrices have rows of a few dozen
// bytes, too short to repay the pair tables MulAddSlice would build and
// pull into cache for each of their many distinct coefficients.
type Matrix struct {
	Rows, Cols int
	Data       []byte // len Rows*Cols
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows x cols matrix V with V[i][j] = alpha_i^j,
// where alpha_i is the field element with value i+shift. With shift 1 the
// evaluation points are 1, alpha^?... — more precisely the points are the
// consecutive field values i+shift interpreted as elements, which are
// pairwise distinct for rows+shift <= 256, making every square submatrix of
// the systematic construction invertible.
func Vandermonde(rows, cols, shift int) *Matrix {
	if rows+shift > Order {
		panic(fmt.Sprintf("gf256: Vandermonde needs rows+shift <= %d, got %d", Order, rows+shift))
	}
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		x := byte(i + shift)
		v := byte(1)
		for j := 0; j < cols; j++ {
			m.Set(i, j, v)
			v = Mul(v, x)
		}
	}
	return m
}

// PowerVandermonde returns the rows x cols matrix with entry
// (alpha^i)^j = alpha^{i*j}, the form used by the paper's RSE encoder where
// parity j is F(alpha^{j-1}) for the data polynomial F. Rows index the
// evaluation point exponent, columns the coefficient.
func PowerVandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, Exp(i*j))
		}
	}
	return m
}

// At returns element (r,c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r,c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	n := NewMatrix(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// Mul returns the matrix product m*other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("gf256: matrix product dimension mismatch %dx%d * %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			if c := mi[k]; c != 0 {
				MulAddSliceCompact(c, other.Row(k), oi)
			}
		}
	}
	return out
}

// MulVec returns m*v for a column vector v of length m.Cols.
func (m *Matrix) MulVec(v []byte) []byte {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("gf256: MulVec length mismatch %d != %d", len(v), m.Cols))
	}
	out := make([]byte, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = DotProduct(m.Row(i), v)
	}
	return out
}

// ErrSingular is returned by Invert when the matrix has no inverse.
var ErrSingular = errors.New("gf256: singular matrix")

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination with partial pivoting (pivot search is for any non-zero
// entry; there is no rounding in a finite field). The receiver is not
// modified. Returns ErrSingular if no inverse exists.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("gf256: Invert of non-square %dx%d matrix", m.Rows, m.Cols))
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot row.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalise the pivot row.
		if pv := a.At(col, col); pv != 1 {
			c := Inv(pv)
			MulSliceCompact(c, a.Row(col), a.Row(col))
			MulSliceCompact(c, inv.Row(col), inv.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := a.At(r, col); f != 0 {
				MulAddSliceCompact(f, a.Row(col), a.Row(r))
				MulAddSliceCompact(f, inv.Row(col), inv.Row(r))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// SubMatrix returns the matrix formed by the given rows of m (in order).
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}
