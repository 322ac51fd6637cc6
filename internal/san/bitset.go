package san

import "math/bits"

// bitset is a set of small non-negative integers — place, activity or
// rate-reward indices — one bit each, 64 to a word. The incremental
// scheduler keeps all of its per-firing bookkeeping in bitsets: set union
// is a word-wide OR, and walking the set bits lowest first visits indices
// in ascending (creation) order with no sort and no dedup stamps.
type bitset []uint64

// wordsFor returns the number of words a bitset over n indices needs.
func wordsFor(n int) int { return (n + 63) >> 6 }

// newBitset returns an empty bitset over n indices.
func newBitset(n int) bitset { return make(bitset, wordsFor(n)) }

// set adds index i.
func (b bitset) set(i int) { b[i>>6] |= 1 << (i & 63) }

// unset removes index i.
func (b bitset) unset(i int) { b[i>>6] &^= 1 << (i & 63) }

// has reports whether index i is in the set.
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// containsAll reports whether every index of o is in b, a bitset over the
// same indices.
func (b bitset) containsAll(o bitset) bool {
	for w, x := range o {
		if b[w]&x != x {
			return false
		}
	}
	return true
}

// or adds every index of o to b, a bitset over at least as many indices.
func (b bitset) or(o bitset) {
	for w, x := range o {
		b[w] |= x
	}
}

// reset empties the bitset in place. The loop is spelled out because the
// compiler turns clear, and the equivalent range loop, into a memclr call,
// which costs more than the handful of words a scheduler set spans.
func (b bitset) reset() {
	for w := 0; w < len(b); w++ {
		b[w] = 0
	}
}

// empty reports whether no index is set.
func (b bitset) empty() bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// count returns the number of indices in the set.
func (b bitset) count() int {
	n := 0
	for _, x := range b {
		n += bits.OnesCount64(x)
	}
	return n
}

// rows is a fixed-width table of bitsets stored flat: row p occupies words
// [p*width, (p+1)*width). The dependency index keeps one row per place
// (the activities or rewards watching it) and one per activity (the places
// of its AllOf gate or its ReactivateOn list). Nets of up to 64 columns
// have one-word rows, which the hot methods special-case.
type rows struct {
	width int
	words []uint64
}

func newRows(n, cols int) rows {
	w := wordsFor(cols)
	return rows{width: w, words: make([]uint64, n*w)}
}

// row returns row p.
func (r rows) row(p int) bitset { return r.words[p*r.width : (p+1)*r.width] }

// orRows ORs into dst the rows of every index set in sel — the
// dependency closure of a set of changed places — and reports whether sel
// was non-empty.
func (r rows) orRows(dst, sel bitset) bool {
	var seen uint64
	if r.width == 1 { // one-word rows: accumulate in a register
		var acc uint64
		for w, x := range sel {
			seen |= x
			for x != 0 {
				acc |= r.words[w<<6|bits.TrailingZeros64(x)]
				x &= x - 1
			}
		}
		dst[0] |= acc
		return seen != 0
	}
	for w, x := range sel {
		seen |= x
		for x != 0 {
			dst.or(r.row(w<<6 | bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return seen != 0
}

// rowWithin reports whether every index of row p is in b, a bitset over
// the row's columns.
func (r rows) rowWithin(p int, b bitset) bool {
	if r.width == 1 {
		x := r.words[p]
		return b[0]&x == x
	}
	return b.containsAll(r.row(p))
}

// rowMeets reports whether row p and b, a bitset over the row's columns,
// share an index.
func (r rows) rowMeets(p int, b bitset) bool {
	for w, x := range r.row(p) {
		if b[w]&x != 0 {
			return true
		}
	}
	return false
}

// growCols widens every row to hold cols columns, keeping their bits.
func (r *rows) growCols(n, cols int) {
	w := wordsFor(cols)
	if w <= r.width {
		return
	}
	grown := make([]uint64, n*w)
	for p := 0; p < n; p++ {
		copy(grown[p*w:], r.row(p))
	}
	r.width, r.words = w, grown
}
