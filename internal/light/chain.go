package light

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/smt"
)

// chainCheck decides, before generation, whether the sealed hard order
// implies every rule-B and rule-C disjunction of one location (DESIGN.md
// §4d). It holds its buffers across locations.
type chainCheck struct {
	byTime []int32 // interval indexes in hard order
	byLo   []int32 // interval indexes by first node
	rank   []int32 // interval index -> position in byTime
}

// decided reports whether the location's intervals form a chain in the
// hard order and every claim reaches past its anchor, and if so returns
// the number of disjunctions genLocConstraints would generate for it,
// every one of which the engine would drop as implied. The check costs
// O(n log n) reach queries; the enumeration it replaces is quadratic.
//
// A chain means each interval's lo reaches its hi and its hi strictly
// reaches the next interval's lo. Then the earlier of any two intervals
// ends strictly before the later begins, which implies every rule-C
// disjunction, and no two intervals share a node, so each node lies in at
// most one. For a claim reading write w of its anchor interval, every
// interval before the anchor ends strictly before w. If the claim's last
// read strictly reaches the first interval after the anchor other than
// its own, it precedes every later interval too. That implies each of the
// claim's rule-B disjunctions, one disjunct or the other.
//
// A hard cycle leaves no reach to argue from, so an engine that Seal
// found contradictory is never decided here.
func (c *chainCheck) decided(rcs []claimNodes, wbs []intervalNodes, eng *smt.OrderEngine) (int, bool) {
	if !eng.Seal() {
		return 0, false
	}
	m := len(wbs)
	c.byTime, c.byLo = c.byTime[:0], c.byLo[:0]
	for i, wb := range wbs {
		if !eng.Reaches(wb.lo, wb.hi) {
			return 0, false
		}
		c.byTime = append(c.byTime, int32(i))
		c.byLo = append(c.byLo, int32(i))
	}
	// On a chain the hard order is total over the intervals, so any sort
	// by it finds the chain; on anything else the scan below rejects
	// whatever order the sort leaves.
	slices.SortFunc(c.byTime, func(a, b int32) int {
		switch {
		case eng.Implied(wbs[a].hi, wbs[b].lo):
			return -1
		case eng.Implied(wbs[b].hi, wbs[a].lo):
			return 1
		}
		return cmp.Compare(a, b)
	})
	c.rank = slices.Grow(c.rank[:0], m)[:m]
	for k, i := range c.byTime {
		if k > 0 && !eng.Implied(wbs[c.byTime[k-1]].hi, wbs[i].lo) {
			return 0, false
		}
		c.rank[i] = int32(k)
	}

	// Rule B: a claim pairs with every interval but its anchor and its
	// own, which may be one interval.
	slices.SortFunc(c.byLo, func(a, b int32) int { return cmp.Compare(wbs[a].lo, wbs[b].lo) })
	within := func(n int32) int32 {
		i := sort.Search(m, func(i int) bool { return wbs[c.byLo[i]].lo > n }) - 1
		if i >= 0 && n <= wbs[c.byLo[i]].hi {
			return c.byLo[i]
		}
		return -1
	}
	n := 0
	for _, rc := range rcs {
		if rc.w < 0 {
			continue // an initial-value read generates no disjunction
		}
		// A source outside every interval, or a claim whose reads run
		// backwards (a malformed range), is left to the enumeration.
		anchor := within(rc.w)
		if anchor < 0 || rc.lo > rc.hi {
			return 0, false
		}
		own := within(rc.lo)
		if own >= 0 && rc.hi > wbs[own].hi {
			own = -1
		}
		n += m - 1
		if own >= 0 && own != anchor {
			n--
		}
		k := c.rank[anchor] + 1
		if k < int32(m) && c.byTime[k] == own {
			k++
		}
		if k < int32(m) && !eng.Implied(rc.hi, wbs[c.byTime[k]].lo) {
			return 0, false
		}
	}

	// Rule C: the cross-thread pairs, less the singleton-singleton ones.
	// An interval's IDs lie in its thread's chain, so byLo groups the
	// intervals by thread.
	pairs := func(k int) int { return k * (k - 1) / 2 }
	singles := 0
	for i := 0; i < m; {
		t := wbs[c.byLo[i]].thread
		j, s := i, 0
		for ; j < m && wbs[c.byLo[j]].thread == t; j++ {
			if wbs[c.byLo[j]].singleton {
				s++
			}
		}
		n -= pairs(j-i) - pairs(s)
		singles += s
		i = j
	}
	return n + pairs(m) - pairs(singles), true
}
