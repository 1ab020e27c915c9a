// Package pca implements Principal Component Analysis via a cyclic Jacobi
// eigendecomposition of the covariance matrix, using only the standard
// library. Belikovetsky's IDS [5] uses PCA to compress a spectrogram down
// to three channels before comparison.
package pca

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Model is a fitted PCA projection.
type Model struct {
	// Mean is the per-dimension mean of the training data (length d).
	Mean []float64
	// Components holds the top-k eigenvectors as rows (k x d), ordered by
	// decreasing eigenvalue.
	Components [][]float64
	// Variances holds the corresponding eigenvalues.
	Variances []float64
}

// Fit computes the top-k principal components of data, where data[n] is one
// d-dimensional observation.
func Fit(data [][]float64, k int) (*Model, error) {
	n := len(data)
	if n == 0 {
		return nil, errors.New("pca: empty data")
	}
	d := len(data[0])
	if d == 0 {
		return nil, errors.New("pca: zero-dimensional data")
	}
	if k < 1 || k > d {
		return nil, fmt.Errorf("pca: k=%d outside [1, %d]", k, d)
	}
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("pca: row %d has %d dims, want %d", i, len(row), d)
		}
	}
	mean := make([]float64, d)
	for _, row := range data {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	// Covariance matrix (d x d).
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range data {
		for i := 0; i < d; i++ {
			di := row[i] - mean[i]
			for j := i; j < d; j++ {
				cov[i][j] += di * (row[j] - mean[j])
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] /= float64(n)
			cov[j][i] = cov[i][j]
		}
	}
	vals, vecs := jacobiEigen(cov)
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
	m := &Model{Mean: mean}
	for r := 0; r < k; r++ {
		idx := order[r]
		comp := make([]float64, d)
		for j := 0; j < d; j++ {
			comp[j] = vecs[j][idx] // eigenvectors are columns of vecs
		}
		m.Components = append(m.Components, comp)
		m.Variances = append(m.Variances, vals[idx])
	}
	return m, nil
}

// Transform projects one observation onto the principal components.
func (m *Model) Transform(row []float64) ([]float64, error) {
	if len(row) != len(m.Mean) {
		return nil, fmt.Errorf("pca: row has %d dims, want %d", len(row), len(m.Mean))
	}
	out := make([]float64, len(m.Components))
	for r, comp := range m.Components {
		var s float64
		for j, v := range row {
			s += (v - m.Mean[j]) * comp[j]
		}
		out[r] = s
	}
	return out, nil
}

// jacobiEigen diagonalizes a symmetric matrix with cyclic Jacobi rotations.
// Returns eigenvalues and the matrix of eigenvectors (as columns).
func jacobiEigen(a [][]float64) ([]float64, [][]float64) {
	d := len(a)
	// Work on a copy.
	m := make([][]float64, d)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	v := make([][]float64, d)
	for i := range v {
		v[i] = make([]float64, d)
		v[i][i] = 1
	}
	const (
		maxSweeps = 64
		eps       = 1e-12
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < eps {
			break
		}
		for p := 0; p < d; p++ {
			for q := p + 1; q < d; q++ {
				if math.Abs(m[p][q]) < eps/float64(d*d) {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(m, v, p, q, c, s)
			}
		}
	}
	vals := make([]float64, d)
	for i := 0; i < d; i++ {
		vals[i] = m[i][i]
	}
	return vals, v
}

// rotate applies a Jacobi rotation in the (p, q) plane to m and
// accumulates it into v.
func rotate(m, v [][]float64, p, q int, c, s float64) {
	d := len(m)
	for i := 0; i < d; i++ {
		mip, miq := m[i][p], m[i][q]
		m[i][p] = c*mip - s*miq
		m[i][q] = s*mip + c*miq
	}
	for i := 0; i < d; i++ {
		mpi, mqi := m[p][i], m[q][i]
		m[p][i] = c*mpi - s*mqi
		m[q][i] = s*mpi + c*mqi
	}
	for i := 0; i < d; i++ {
		vip, viq := v[i][p], v[i][q]
		v[i][p] = c*vip - s*viq
		v[i][q] = s*vip + c*viq
	}
}
