package platform

import "testing"

// refNodeMap is the id-per-node NodeMap the run-length one replaced, kept
// as the reference the differential fuzz target checks against: a slice
// stack of single node ids, an owner array and a job-keyed holdings map.
type refNodeMap struct {
	owner []int32           // node -> last job id allocated there; stale once released
	free  []int32           // stack of free node indices
	held  map[int32][]int32 // job id -> nodes held
}

func newRefNodeMap(n int) *refNodeMap {
	m := &refNodeMap{
		owner: make([]int32, n),
		free:  make([]int32, n),
		held:  make(map[int32][]int32),
	}
	m.Reset()
	return m
}

func (m *refNodeMap) Reset() {
	n := len(m.owner)
	m.free = m.free[:n]
	for i := range m.owner {
		m.owner[i] = NoOwner
		m.free[i] = int32(n - 1 - i)
	}
	clear(m.held)
}

func (m *refNodeMap) Free() int { return len(m.free) }

func (m *refNodeMap) Allocate(job int32, q int) bool {
	if q <= 0 || q > len(m.free) {
		return false
	}
	if _, dup := m.held[job]; dup {
		return false
	}
	take := m.free[len(m.free)-q:]
	m.free = m.free[:len(m.free)-q]
	nodes := append([]int32(nil), take...)
	for _, n := range nodes {
		m.owner[n] = job
	}
	m.held[job] = nodes
	return true
}

func (m *refNodeMap) Release(job int32) error {
	nodes, ok := m.held[job]
	if !ok {
		return ErrNotAllocated
	}
	m.free = append(m.free, nodes...)
	delete(m.held, job)
	return nil
}

func (m *refNodeMap) Owner(node int32) int32 {
	job := m.owner[node]
	if _, live := m.held[job]; job == NoOwner || !live {
		return NoOwner
	}
	return job
}

func (m *refNodeMap) Holding(job int32) int { return len(m.held[job]) }

// fuzzWindow is how many of the most recent job ids the fuzz target
// releases and checks: few enough that Release meets idle and already
// released ids as well as live ones.
const fuzzWindow = 8

// FuzzNodeMap drives random Allocate, Release and Reset calls against a
// NodeMap and the id-per-node reference. The first byte sizes the map
// (1..64 nodes); each later op reads up to two more bytes. Job ids are
// issued fresh per allocation and restart at zero on Reset, the engine's
// contract that the reference's stale owner entries rely on. After every
// operation Free, Holding of the recent ids and every node's Owner must
// agree, which pins the exact stack order: a different pop order hands out
// different ids and shows up as an Owner mismatch.
func FuzzNodeMap(f *testing.F) {
	f.Add([]byte{16, 0, 5, 0, 7, 2, 1, 0, 9, 1, 0, 2, 0, 0, 3})
	f.Add([]byte{63, 0, 20, 0, 20, 0, 20, 2, 1, 0, 10, 2, 0, 4, 0, 30, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		got, want := NewNodeMap(n), newRefNodeMap(n)
		next := func(i *int) int {
			if *i >= len(data) {
				return 0
			}
			b := data[*i]
			*i++
			return int(b)
		}
		var nextID int32
		for i := 1; i < len(data); {
			switch op := next(&i) % 5; op {
			case 0, 1: // a fresh id, twice as often as the others
				job, q := nextID, next(&i)%(n+2)
				nextID++
				if g, w := got.Allocate(job, q), want.Allocate(job, q); g != w {
					t.Fatalf("Allocate(%d, %d) = %v, reference %v", job, q, g, w)
				}
			case 2: // a recent id: live, released or never allocated
				job := nextID - 1 - int32(next(&i)%fuzzWindow)
				if job < 0 {
					break
				}
				if g, w := got.Release(job), want.Release(job); g != w {
					t.Fatalf("Release(%d) = %v, reference %v", job, g, w)
				}
			case 3: // a duplicate of a live id must be refused
				job := nextID - 1 - int32(next(&i)%fuzzWindow)
				if job < 0 || want.Holding(job) == 0 {
					break
				}
				if got.Allocate(job, 1) || want.Allocate(job, 1) {
					t.Fatalf("duplicate Allocate(%d, 1) accepted", job)
				}
			default:
				got.Reset()
				want.Reset()
				nextID = 0
			}
			if g, w := got.Free(), want.Free(); g != w {
				t.Fatalf("Free = %d, reference %d", g, w)
			}
			if got.Allocated() != n-got.Free() || got.Total() != n {
				t.Fatalf("Allocated %d / Total %d disagree with Free %d of %d", got.Allocated(), got.Total(), got.Free(), n)
			}
			for job := max(nextID-fuzzWindow, 0); job < nextID; job++ {
				if g, w := got.Holding(job), want.Holding(job); g != w {
					t.Fatalf("Holding(%d) = %d, reference %d", job, g, w)
				}
			}
			for node := int32(0); node < int32(n); node++ {
				if g, w := got.Owner(node), want.Owner(node); g != w {
					t.Fatalf("Owner(%d) = %d, reference %d", node, g, w)
				}
			}
		}
	})
}
