package main

import (
	"math"

	"github.com/blockreorg/blockreorg/sparse"
)

// checksum hashes a matrix's shape, structure and value bits with FNV-1a
// over 64-bit words, so two products compare bit for bit without both being
// kept in memory.
func checksum(m *sparse.CSR) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(m.Rows))
	mix(uint64(m.Cols))
	for i := 0; i < m.Rows; i++ {
		idx, val := m.Row(i)
		mix(uint64(len(idx)))
		for k, j := range idx {
			mix(uint64(j))
			mix(math.Float64bits(val[k]))
		}
	}
	return h
}
