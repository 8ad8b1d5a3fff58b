// Package textmatch reports which of a fixed set of byte strings occur
// in a text, in one pass over the text: an Aho–Corasick automaton
// (Aho and Corasick, "Efficient string matching: an aid to
// bibliographic search", CACM 1975).
//
// A Matcher is immutable once built, so any number of goroutines may
// scan with it at once. Its tables are sparse: the root has a dense
// 256-entry row, every other state a byte-sorted edge list, and state
// numbers are 16 bits wide, so an automaton over a few hundred words
// holds a few kilobytes.
package textmatch

import "unsafe"

// maxStates is the number of states a 16-bit state number can name.
const maxStates = 1 << 16

// Matcher finds its patterns in texts. States are numbered in
// breadth-first order from the root, state 0, so each state's edges
// are contiguous and every failure link points to a smaller number.
type Matcher struct {
	// root is the root's transition on each byte: a child, or the root
	// itself when no pattern starts with that byte.
	root [256]uint16
	// The edges of state s ≥ 1 are edgeByte[edgeStart[s]:edgeStart[s+1]],
	// sorted by byte, and lead to the states at the same indexes of
	// edgeNext.
	edgeStart []uint16
	edgeByte  []byte
	edgeNext  []uint16
	// fail[s] is the state of the longest proper suffix of s's string
	// that is a prefix of some pattern.
	fail []uint16
	// report[s] is the first state on s's failure chain, s included, at
	// which a pattern ends, or 0 when there is none.
	report []uint16
	// The patterns ending at state s are pats[outStart[s]:outStart[s+1]].
	outStart []uint16
	pats     []uint16
}

// New builds the automaton over patterns; pattern p is reported as
// hit[p] by Scan. Empty patterns never match, and duplicates are each
// reported. New panics when given more than 65 535 patterns or more
// than 65 535 pattern bytes in all, the limits of its 16-bit tables.
func New(patterns []string) *Matcher {
	total := 1
	for _, p := range patterns {
		total += len(p)
	}
	if len(patterns) >= maxStates || total > maxStates {
		panic("textmatch: too many patterns for 16-bit tables")
	}

	// The trie, in insertion order: each state's children form a list
	// linked through sibling, sorted by label, the byte into the child.
	label := make([]byte, 1, total)
	child := make([]int32, 1, total)
	sibling := make([]int32, 1, total)
	end := make([]int32, len(patterns)) // the state each pattern ends at
	for p, pat := range patterns {
		s := int32(0)
		for i := 0; i < len(pat); i++ {
			c := pat[i]
			prev, t := int32(-1), child[s]
			for t != 0 && label[t] < c {
				prev, t = t, sibling[t]
			}
			if t == 0 || label[t] != c {
				n := int32(len(label))
				label = append(label, c)
				child = append(child, 0)
				sibling = append(sibling, t)
				if prev < 0 {
					child[s] = n
				} else {
					sibling[prev] = n
				}
				t = n
			}
			s = t
		}
		end[p] = s
	}

	// Renumber breadth-first: order[k] is the trie state numbered k.
	states := len(label)
	order := make([]int32, 1, states)
	id := make([]uint16, states)
	for k := 0; k < len(order); k++ {
		for t := child[order[k]]; t != 0; t = sibling[t] {
			id[t] = uint16(len(order))
			order = append(order, t)
		}
	}

	edges := states - 1 // every state but the root has one edge into it
	for t := child[0]; t != 0; t = sibling[t] {
		edges-- // the root's row holds these
	}
	m := &Matcher{
		edgeStart: make([]uint16, states+1),
		edgeByte:  make([]byte, 0, edges),
		edgeNext:  make([]uint16, 0, edges),
		fail:      make([]uint16, states),
		report:    make([]uint16, states),
		outStart:  make([]uint16, states+1),
	}
	for t := child[0]; t != 0; t = sibling[t] {
		m.root[label[t]] = id[t]
	}
	for k := 1; k < states; k++ {
		m.edgeStart[k] = uint16(len(m.edgeByte))
		for t := child[order[k]]; t != 0; t = sibling[t] {
			m.edgeByte = append(m.edgeByte, label[t])
			m.edgeNext = append(m.edgeNext, id[t])
		}
	}
	m.edgeStart[states] = uint16(len(m.edgeByte))

	// Failure links, shallowest first: a child's link follows its
	// parent's link on the child's byte. The root's children link to
	// the root, the zero value.
	for k := 1; k < states; k++ {
		for i := int(m.edgeStart[k]); i < int(m.edgeStart[k+1]); i++ {
			m.fail[m.edgeNext[i]] = uint16(m.step(int(m.fail[k]), m.edgeByte[i]))
		}
	}

	// Outputs: each state's own patterns, in pattern order.
	for p, pat := range patterns {
		if pat != "" {
			m.outStart[int(id[end[p]])+1]++
		}
	}
	for s := 1; s <= states; s++ {
		m.outStart[s] += m.outStart[s-1]
	}
	m.pats = make([]uint16, m.outStart[states])
	next := make([]uint16, states)
	copy(next, m.outStart)
	for p, pat := range patterns {
		if pat != "" {
			s := id[end[p]]
			m.pats[next[s]] = uint16(p)
			next[s]++
		}
	}
	for s := 1; s < states; s++ {
		if m.outStart[s] != m.outStart[s+1] {
			m.report[s] = uint16(s)
		} else {
			m.report[s] = m.report[m.fail[s]]
		}
	}
	return m
}

// step returns the state after reading c in state s.
func (m *Matcher) step(s int, c byte) int {
	for s != 0 {
		for i := int(m.edgeStart[s]); i < int(m.edgeStart[s+1]); i++ {
			if b := m.edgeByte[i]; b >= c {
				if b == c {
					return int(m.edgeNext[i])
				}
				break
			}
		}
		s = int(m.fail[s])
	}
	return int(m.root[c])
}

// Scan sets hit[p] for every pattern p that occurs in text, exactly
// when p != "" && strings.Contains(text, p), and leaves the other
// entries as they were. hit needs an entry for every pattern.
func (m *Matcher) Scan(text string, hit []bool) {
	s := 0
	for i := 0; i < len(text); i++ {
		if s = m.step(s, text[i]); s == 0 {
			continue
		}
		for r := int(m.report[s]); r != 0; r = int(m.report[m.fail[r]]) {
			for _, p := range m.pats[m.outStart[r]:m.outStart[r+1]] {
				hit[p] = true
			}
		}
	}
}

// Size returns the bytes the Matcher and its tables occupy.
func (m *Matcher) Size() int {
	return int(unsafe.Sizeof(*m)) + cap(m.edgeByte) +
		2*(cap(m.edgeStart)+cap(m.edgeNext)+cap(m.fail)+cap(m.report)+cap(m.outStart)+cap(m.pats))
}
