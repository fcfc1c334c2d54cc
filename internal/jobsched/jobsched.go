// Package jobsched implements the online job scheduler of §2/§5: a
// greedy first-fit scan over a priority-ordered queue. Jobs that fit in
// the currently free nodes start immediately; failed jobs are resubmitted
// "at the head of the scheduling queue" with the highest priority so they
// restart as soon as their nodes are available again.
package jobsched

import "math"

// Item is one queued job instance.
type Item struct {
	// ID is the runtime job-instance id.
	ID int32
	// Nodes is the allocation size; it must not be negative.
	Nodes int
}

// entry is one queued item of a size FIFO, stamped with the queue-wide
// push sequence that orders it against the other sizes' items.
type entry struct {
	seq uint64
	id  int32
}

// sizeFIFO holds the queued items of one band that share one size, in push
// order: items[head:] are queued.
type sizeFIFO struct {
	nodes int
	head  int
	items []entry
}

// pop removes and returns the oldest item. The consumed prefix is
// reclaimed once it is at least half the slice, so a FIFO that never
// drains stays within twice its peak length at O(1) amortised cost.
func (f *sizeFIFO) pop() entry {
	e := f.items[f.head]
	f.head++
	if 2*f.head >= len(f.items) {
		f.items = f.items[:copy(f.items, f.items[f.head:])]
		f.head = 0
	}
	return e
}

// band is one priority level: a FIFO per distinct size.
type band struct {
	// fifos has one FIFO per size pushed since the last Reset; the slots
	// between len and cap keep their buffers for reuse.
	fifos []sizeFIFO
	n     int
}

func (b *band) push(it Item, seq uint64) {
	if it.Nodes < 0 {
		panic("jobsched: negative item size")
	}
	var f *sizeFIFO
	for i := range b.fifos {
		if b.fifos[i].nodes == it.Nodes {
			f = &b.fifos[i]
			break
		}
	}
	if f == nil {
		if len(b.fifos) < cap(b.fifos) {
			b.fifos = b.fifos[:len(b.fifos)+1]
		} else {
			b.fifos = append(b.fifos, sizeFIFO{})
		}
		f = &b.fifos[len(b.fifos)-1]
		f.nodes, f.head, f.items = it.Nodes, 0, f.items[:0]
	}
	f.items = append(f.items, entry{seq: seq, id: it.ID})
	b.n++
}

// oldest returns the index of the FIFO whose head is the band's earliest
// item among sizes of at most limit nodes, or -1 if none fits.
func (b *band) oldest(limit int) int {
	best := -1
	for i := range b.fifos {
		f := &b.fifos[i]
		if f.head == len(f.items) || f.nodes > limit {
			continue
		}
		if best < 0 || f.items[f.head].seq < b.fifos[best].items[b.fifos[best].head].seq {
			best = i
		}
	}
	return best
}

// firstFit starts the band's items that fit, earliest first, and returns
// how many it started. free is decremented by each start.
func (b *band) firstFit(free *int, start func(Item)) int {
	started := 0
	for {
		i := b.oldest(*free)
		if i < 0 {
			return started
		}
		f := &b.fifos[i]
		it := Item{ID: f.pop().id, Nodes: f.nodes}
		b.n--
		*free -= it.Nodes
		started++
		start(it)
	}
}

func (b *band) reset() {
	b.fifos = b.fifos[:0]
	b.n = 0
}

// Queue is a two-band priority queue: urgent items (failure restarts) are
// always scanned before normal items; within a band, order is FIFO.
//
// Each band keeps one FIFO per distinct item size, and every item carries a
// queue-wide sequence stamp, so a band's FIFO order is the order of its
// stamps. FirstFit relies on one invariant: sizes are not negative, so the
// free count only decreases during a pass. An item skipped by a linear
// first-fit scan therefore never fits later in the same pass, and the
// scan's next start is always the earliest queued item whose size fits —
// the earliest head among the FIFOs of the fitting sizes. A pass costs
// O(sizes × (started + 1)) instead of O(queue length), and starts the same
// items in the same order as the linear scan.
type Queue struct {
	urgent, normal band
	seq            uint64
}

// PushNormal appends an item to the normal band (initial submission
// order).
func (q *Queue) PushNormal(it Item) {
	q.normal.push(it, q.seq)
	q.seq++
}

// PushUrgent appends an item to the urgent band (failure restarts; FIFO
// among restarts).
func (q *Queue) PushUrgent(it Item) {
	q.urgent.push(it, q.seq)
	q.seq++
}

// Reset empties both bands, retaining their capacity so a reused queue
// enqueues without allocating.
func (q *Queue) Reset() {
	q.urgent.reset()
	q.normal.reset()
	q.seq = 0
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.urgent.n + q.normal.n }

// UrgentLen returns the number of queued restart items.
func (q *Queue) UrgentLen() int { return q.urgent.n }

// FirstFit greedily starts every queued item that fits in the free nodes,
// scanning urgent then normal items in order and skipping items too large
// for the remaining count (first-fit with backfilling, the paper's "simple,
// greedy first-fit algorithm"). start is called for each started item;
// started items are removed. It returns the number started.
func (q *Queue) FirstFit(freeNodes int, start func(Item)) int {
	started := q.urgent.firstFit(&freeNodes, start)
	return started + q.normal.firstFit(&freeNodes, start)
}

// Peek returns the highest-priority queued item without removing it; ok is
// false when the queue is empty.
func (q *Queue) Peek() (it Item, ok bool) {
	for _, b := range [...]*band{&q.urgent, &q.normal} {
		if i := b.oldest(math.MaxInt); i >= 0 {
			f := &b.fifos[i]
			return Item{ID: f.items[f.head].id, Nodes: f.nodes}, true
		}
	}
	return Item{}, false
}
