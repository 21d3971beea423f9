package asm

import "strings"

// countScans makes lexString's searches add the bytes each one covers
// to *n — up to and including the byte found, or the whole string when
// it is absent — until the returned function restores them.
func countScans(n *int) (restore func()) {
	indexByte = func(s string, c byte) int {
		k := strings.IndexByte(s, c)
		if k < 0 {
			*n += len(s)
		} else {
			*n += k + 1
		}
		return k
	}
	return func() { indexByte = strings.IndexByte }
}
