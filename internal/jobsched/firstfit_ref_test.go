package jobsched

import (
	"reflect"
	"testing"
)

// refQueue is the linear-scan queue the per-size FIFOs replaced, kept as
// the reference the differential fuzz target checks against: two slices
// scanned front to back on every FirstFit.
type refQueue struct {
	urgent []Item
	normal []Item
}

func (q *refQueue) PushNormal(it Item) { q.normal = append(q.normal, it) }
func (q *refQueue) PushUrgent(it Item) { q.urgent = append(q.urgent, it) }
func (q *refQueue) Reset()             { q.urgent, q.normal = q.urgent[:0], q.normal[:0] }
func (q *refQueue) Len() int           { return len(q.urgent) + len(q.normal) }
func (q *refQueue) UrgentLen() int     { return len(q.urgent) }

func (q *refQueue) FirstFit(freeNodes int, start func(Item)) int {
	started := 0
	scan := func(band []Item) []Item {
		kept := band[:0]
		for _, it := range band {
			if it.Nodes <= freeNodes {
				freeNodes -= it.Nodes
				start(it)
				started++
			} else {
				kept = append(kept, it)
			}
		}
		return kept
	}
	q.urgent = scan(q.urgent)
	q.normal = scan(q.normal)
	return started
}

func (q *refQueue) Peek() (Item, bool) {
	if len(q.urgent) > 0 {
		return q.urgent[0], true
	}
	if len(q.normal) > 0 {
		return q.normal[0], true
	}
	return Item{}, false
}

// FuzzFirstFit drives random PushUrgent, PushNormal, FirstFit and Reset
// calls against a Queue and the linear-scan reference. The first byte
// picks 1–6 item sizes, the next ones their node counts (1..64); each
// later op reads one more byte (a size index or a free count). Every
// FirstFit must start the same items in the same order and report the
// same count, and after every operation Peek, Len and UrgentLen must
// agree.
func FuzzFirstFit(f *testing.F) {
	f.Add([]byte{3, 40, 30, 20, 0, 0, 1, 1, 5, 2, 2, 100, 3, 60})
	f.Add([]byte{1, 10, 0, 0, 0, 0, 1, 0, 2, 25, 4, 0, 0, 2, 9})
	f.Add([]byte{5, 64, 1, 17, 33, 8, 0, 0, 1, 1, 0, 2, 1, 3, 0, 4, 2, 50, 1, 0, 2, 200, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		i := 0
		next := func() int {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return int(b)
		}
		sizes := make([]int, 1+next()%6)
		for k := range sizes {
			sizes[k] = 1 + next()%64
		}
		var got Queue
		var want refQueue
		var id int32
		for i < len(data) {
			switch op := next() % 5; op {
			case 0, 1:
				it := Item{ID: id, Nodes: sizes[next()%len(sizes)]}
				id++
				if op == 0 {
					got.PushNormal(it)
					want.PushNormal(it)
				} else {
					got.PushUrgent(it)
					want.PushUrgent(it)
				}
			case 2, 3:
				// Op 3 scales the byte up, so some passes have room for
				// many items at once.
				free := next() * (1 + op%2*3)
				var g, w []Item
				gn := got.FirstFit(free, func(it Item) { g = append(g, it) })
				wn := want.FirstFit(free, func(it Item) { w = append(w, it) })
				if gn != wn || !reflect.DeepEqual(g, w) {
					t.Fatalf("FirstFit(%d) started %d %v, reference %d %v", free, gn, g, wn, w)
				}
			default:
				got.Reset()
				want.Reset()
			}
			gi, gok := got.Peek()
			wi, wok := want.Peek()
			if gi != wi || gok != wok {
				t.Fatalf("Peek = %+v %v, reference %+v %v", gi, gok, wi, wok)
			}
			if got.Len() != want.Len() || got.UrgentLen() != want.UrgentLen() {
				t.Fatalf("Len/UrgentLen = %d/%d, reference %d/%d", got.Len(), got.UrgentLen(), want.Len(), want.UrgentLen())
			}
		}
	})
}
