package sim

// The future event list is a hybrid: a binary heap while the pending set
// is small (single-source runs sit around a few hundred events, where the
// heap's O(log n) is a handful of comparisons and its locality is
// unbeatable), and a calendar queue once it grows past calEnter (sharded
// aggregates hold one pending set for hundreds of sources — 10⁴–10⁶
// events — where the heap's log factor and cache misses dominate the
// event loop). The calendar queue gives O(1) amortized schedule/pop at
// any size; the hybrid switches back to the heap below calExit, with the
// 4:1 hysteresis preventing thrash at the boundary.
//
// Both structures pop in exactly the same total order — ascending
// (t, seq) — so which one is active is observationally irrelevant; the
// property tests in calqueue_test.go assert the equivalence under
// adversarial interleavings.

const (
	// calEnter/calExit are the hybrid's migration thresholds (events).
	calEnter = 4096
	calExit  = 1024
	// calGapFactor sizes bucket width as a multiple of the EWMA gap
	// between consecutively popped events, targeting a couple of events in
	// the bucket the scan is standing on. Wider buckets shift the cost
	// onto the head bucket's sorted inserts (measurably slower at 8×);
	// narrower ones onto the scan's empty-slot walk.
	calGapFactor = 2.0
	// calLoadHigh triggers a grow-resize when average occupancy exceeds
	// it; buckets double and the width is re-tuned to the current EWMA.
	calLoadHigh = 2
)

// evLess is the scheduler's total order: ascending time, ties broken by
// schedule order. Exactly eventHeap.less, shared so the two structures
// cannot drift.
func evLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// sched is the hybrid future event list.
type sched struct {
	heap  eventHeap
	cal   calQueue
	onCal bool

	// lastT / gapEWMA track the pop process: gapEWMA is an exponentially
	// weighted mean of the time between consecutive pops, the scale the
	// calendar queue tunes its bucket width to.
	lastT   float64
	gapEWMA float64
	popped  bool
}

func (s *sched) len() int {
	if s.onCal {
		return s.cal.n
	}
	return len(s.heap)
}

// buckets reports the calendar's bucket count (0 while on the heap) for
// the scheduler gauges.
func (s *sched) buckets() int {
	if s.onCal {
		return len(s.cal.buckets)
	}
	return 0
}

func (s *sched) push(e event) {
	if s.onCal {
		s.cal.push(e)
		return
	}
	s.heap.push(e)
	if len(s.heap) >= calEnter {
		s.migrateToCal()
	}
}

func (s *sched) pop() event {
	var e event
	if s.onCal {
		e = s.cal.pop()
		if s.cal.n < calExit {
			s.migrateToHeap()
		}
	} else {
		e = s.heap.pop()
	}
	if s.popped {
		if gap := e.t - s.lastT; gap >= 0 {
			s.gapEWMA += (gap - s.gapEWMA) / 64
		}
	}
	s.lastT = e.t
	s.popped = true
	return e
}

// migrateToCal drains the heap into a freshly sized calendar. Bucket
// width comes from the pop-gap EWMA when one exists; before any pop (a
// burst of scheduling at install time) it falls back to the pending
// span divided by the event count.
func (s *sched) migrateToCal() {
	n := len(s.heap)
	minT, maxT := s.heap[0].t, s.heap[0].t
	for i := 1; i < n; i++ {
		if t := s.heap[i].t; t < minT {
			minT = t
		} else if t > maxT {
			maxT = t
		}
	}
	width := s.gapEWMA * calGapFactor
	if !(width > 0) {
		width = (maxT - minT) / float64(n) * calGapFactor
	}
	start := s.lastT
	if !s.popped {
		start = minT
	}
	s.cal.ewma = &s.gapEWMA
	s.cal.init(nextPow2(n), width, start)
	for i := range s.heap {
		s.cal.push(s.heap[i])
	}
	s.heap = s.heap[:0]
	s.onCal = true
}

// migrateToHeap drains the calendar back into the heap.
func (s *sched) migrateToHeap() {
	for bi, b := range s.cal.buckets {
		for i := range b {
			s.heap.push(b[i])
		}
		s.cal.buckets[bi] = b[:0]
	}
	for i := range s.cal.far {
		s.heap.push(s.cal.far[i])
	}
	s.cal.far = s.cal.far[:0]
	s.cal.n = 0
	s.onCal = false
}

// nextPow2 returns the smallest power of two >= n (and >= 2).
func nextPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// calQueue is a Brown-style calendar queue: buckets of `width` seconds,
// bucket index = slot(t) mod len(buckets), where slot(t) = int64(t/width)
// is the absolute slot number. Each bucket is kept sorted descending by
// (t, seq) so its minimum is the tail: pop from the standing bucket is
// O(1), and the sortedness makes "does this bucket hold an event of the
// scan's current slot" a single tail comparison.
//
// Correctness does not depend on the width or on float precision at
// bucket boundaries: an event qualifies for popping when slot(t) equals
// the scan's absolute slot, computed with the *same* float arithmetic
// that placed it, so placement and qualification can never disagree.
// Float multiplication is weakly monotone, so an event scheduled at
// t >= now can never land on a slot behind the scan. Events whose slot
// would overflow int64 (absurdly far futures) are parked in the small sorted `far` overflow list, consulted
// only by the direct-search fallback.
type calQueue struct {
	buckets [][]event
	far     []event // overflow, sorted descending by (t, seq)
	mask    int
	width   float64
	inv     float64
	slot    int64   // absolute slot the pop scan is standing on
	cur     int     // slot mod len(buckets)
	anchor  float64 // time of the last pop / scan reset, resize re-anchor point
	n       int

	directs int      // consecutive popDirect fallbacks, triggers a re-tune
	ewma    *float64 // engine pop-gap EWMA, owned by sched
}

// calOverflow bounds t/width so the int64 conversion in slotOf stays
// exact and in range.
const calOverflow = float64(1 << 60)

func (c *calQueue) init(nb int, width float64, start float64) {
	if !(width > 0) {
		width = 1 // degenerate pending set (all ties); any width is correct
	}
	if cap(c.buckets) >= nb {
		c.buckets = c.buckets[:nb]
		for i := range c.buckets {
			c.buckets[i] = c.buckets[i][:0]
		}
	} else {
		c.buckets = make([][]event, nb)
	}
	c.mask = nb - 1
	c.width = width
	c.inv = 1 / width
	c.n = 0
	c.far = c.far[:0]
	c.directs = 0
	c.setScan(start)
}

// slotOf maps a time to its absolute slot, or returns ok=false when the
// slot number would overflow.
func (c *calQueue) slotOf(t float64) (int64, bool) {
	k := t * c.inv
	if k >= calOverflow {
		return 0, false
	}
	return int64(k), true
}

// setScan positions the pop scan on the slot containing time t.
func (c *calQueue) setScan(t float64) {
	k := t * c.inv
	if k >= calOverflow {
		k = calOverflow
	}
	c.slot = int64(k)
	c.cur = int(c.slot) & c.mask
	c.anchor = t
}

func (c *calQueue) push(e event) {
	slot, ok := c.slotOf(e.t)
	if !ok {
		c.pushFar(e)
		return
	}
	idx := int(slot) & c.mask
	b := c.buckets[idx]
	i := len(b)
	b = append(b, event{})
	for i > 0 && evLess(&b[i-1], &e) {
		b[i] = b[i-1]
		i--
	}
	b[i] = e
	c.buckets[idx] = b
	c.n++
	if c.n > calLoadHigh*len(c.buckets) {
		c.resize(len(c.buckets) * 2)
	}
}

func (c *calQueue) pushFar(e event) {
	i := len(c.far)
	c.far = append(c.far, event{})
	for i > 0 && evLess(&c.far[i-1], &e) {
		c.far[i] = c.far[i-1]
		i--
	}
	c.far[i] = e
	c.n++
}

// pop removes and returns the minimum (t, seq) event. The scan walks
// slots from its current position, taking the tail of the standing bucket
// when that tail's slot matches; a full fruitless revolution falls back
// to a direct minimum search (sparse queue) which also re-anchors the
// scan.
func (c *calQueue) pop() event {
	scanned := 0
	for {
		b := c.buckets[c.cur]
		if m := len(b); m > 0 {
			if s, ok := c.slotOf(b[m-1].t); ok && s == c.slot {
				e := b[m-1]
				c.buckets[c.cur] = b[:m-1]
				c.n--
				c.directs = 0
				c.anchor = e.t
				return e
			}
		}
		c.slot++
		c.cur = int(c.slot) & c.mask
		scanned++
		if scanned > c.mask {
			return c.popDirect()
		}
	}
}

// popDirect finds the global minimum by inspecting every bucket's tail
// (each tail is its bucket's minimum) plus the overflow list, removes it,
// and re-anchors the scan at its time. O(buckets), hit only when a whole
// revolution holds no event; a streak of direct pops means the width no
// longer matches the event density, so it triggers a re-tuning resize.
func (c *calQueue) popDirect() event {
	best := -1
	for i := range c.buckets {
		b := c.buckets[i]
		if m := len(b); m > 0 {
			if best < 0 || evLess(&b[m-1], &c.buckets[best][len(c.buckets[best])-1]) {
				best = i
			}
		}
	}
	if f := len(c.far); f > 0 {
		if best < 0 || evLess(&c.far[f-1], &c.buckets[best][len(c.buckets[best])-1]) {
			e := c.far[f-1]
			c.far = c.far[:f-1]
			c.n--
			c.setScan(e.t)
			return e
		}
	}
	b := c.buckets[best]
	m := len(b)
	e := b[m-1]
	c.buckets[best] = b[:m-1]
	c.n--
	c.setScan(e.t)
	c.directs++
	if c.directs >= 8 && c.ewma != nil {
		if w := *c.ewma * calGapFactor; w > 0 && (w > 2*c.width || w < c.width/2) {
			c.resize(len(c.buckets))
		}
		c.directs = 0
	}
	return e
}

// resize rebuilds the calendar with nb buckets, re-tuning the width to
// the engine's current pop-gap EWMA when available. O(n); amortized by
// the doubling growth policy. The re-anchor point is the last popped
// time, which lower-bounds every pending event.
func (c *calQueue) resize(nb int) {
	old := c.buckets
	oldFar := c.far
	width := c.width
	if c.ewma != nil && *c.ewma > 0 {
		width = *c.ewma * calGapFactor
	}
	start := c.anchor
	c.buckets = make([][]event, nb)
	c.far = nil
	c.mask = nb - 1
	c.width = width
	c.inv = 1 / width
	c.n = 0
	c.directs = 0
	c.setScan(start)
	for i := range old {
		for j := range old[i] {
			c.push(old[i][j])
		}
	}
	for i := range oldFar {
		c.push(oldFar[i])
	}
}
