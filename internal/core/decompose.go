package core

// Check describes one test the two-path range-lookup performs: either a
// covering (single dyadic interval containing a query bound, tested with
// one bit) or a run of decomposition intervals fully contained in the query
// (tested with masked word accesses). DecomposeChecks exposes the traversal
// structurally — assuming every covering test passes — for documentation,
// golden tests against the paper's Fig. 7, and cost analysis.
type Check struct {
	// Level is the dyadic level ℓ of the tested interval(s).
	Level int
	// Lo and Hi are the inclusive prefix bounds at Level. For a covering
	// Lo == Hi.
	Lo, Hi uint64
	// Covering distinguishes covering tests from decomposition tests.
	Covering bool
}

// KeyRange returns the key interval [lo, hi] covered by the check.
func (c Check) KeyRange() (lo, hi uint64) {
	return c.Lo << uint(c.Level), c.Hi<<uint(c.Level) | lowMask(uint(c.Level))
}

// DecomposeChecks returns, in top-down order, every check the two-path
// range lookup would perform for the query [lo, hi] over the given
// ascending dyadic levels (ℓ_0 .. ℓ_top), assuming all covering tests
// pass: the lookup's own plan, rendered with every path kept alive.
// levels[len(levels)-1] is the top tested level; levels above it are
// treated as saturated.
func DecomposeChecks(lo, hi uint64, levels []int) []Check {
	if lo > hi {
		lo, hi = hi, lo
	}
	lv := make([]uint, len(levels))
	for i, l := range levels {
		lv[i] = uint(l)
	}
	p := newRangePlan(lo, hi, lv)
	var out []Check
	i := p.top()
	for ; i >= 0 && p.single(i); i-- {
		pre := rsh(lo, lv[i])
		if p.dyadic(i) {
			return append(out, Check{Level: levels[i], Lo: pre, Hi: pre})
		}
		out = append(out, Check{Level: levels[i], Lo: pre, Hi: pre, Covering: true})
	}
	var l planLayer
	for live := pathS; i >= 0 && live != 0; i-- {
		p.layer(i, live, &l)
		live = 0
		for _, c := range l.checks[:l.n] {
			out = append(out, Check{Level: levels[i], Lo: c.lo, Hi: c.hi, Covering: c.give != 0})
			live |= c.give
		}
	}
	return out
}
