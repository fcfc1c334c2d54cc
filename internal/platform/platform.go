// Package platform models the shared HPC machine of the paper: a pool of
// space-shared compute nodes, an aggregated parallel-file-system bandwidth
// that is time-shared, and a per-node reliability figure.
//
// Failure-unit convention. The paper equates a node MTBF of 2 years with a
// system MTBF of 1 hour on Cielo, and 50 years with 24 hours, which holds
// for roughly 17 900 failure units; Cielo's 143 104 cores therefore map to
// 17 888 8-core sockets, the "nodes" this package schedules and fails. The
// prospective system's 15-year/2.6-hour equivalence confirms its 50 000
// nodes directly.
package platform

import (
	"errors"
	"fmt"

	"repro/internal/units"
)

// Cielo hardware constants (APEX workflows report / paper §6.1).
const (
	CieloCores        = 143104
	CieloCoresPerNode = 8
	CieloNodes        = CieloCores / CieloCoresPerNode // 17 888 failure units
	CieloMemoryBytes  = 286 * units.TB
)

// Prospective-system constants (paper §6.2: "7PB of main memory and 50,000
// compute nodes (e.g. Aurora)").
const (
	ProspectiveNodes       = 50000
	ProspectiveMemoryBytes = 7 * units.PB
)

// Platform describes one machine configuration.
type Platform struct {
	Name string
	// Nodes is the number of schedulable failure units.
	Nodes int
	// MemoryBytes is the aggregate main memory; job footprints are
	// fractions of it.
	MemoryBytes float64
	// BandwidthBps is the aggregated PFS bandwidth shared by all I/O.
	BandwidthBps float64
	// NodeMTBFSeconds is the mean time between failures of one node.
	NodeMTBFSeconds float64
}

// Cielo returns the Cielo configuration with the given PFS bandwidth
// (GB/s) and node MTBF (years) — the two parameters swept in Figures 1–2.
func Cielo(bandwidthGBps, nodeMTBFYears float64) Platform {
	return Platform{
		Name:            "Cielo",
		Nodes:           CieloNodes,
		MemoryBytes:     CieloMemoryBytes,
		BandwidthBps:    units.GBps(bandwidthGBps),
		NodeMTBFSeconds: units.Years(nodeMTBFYears),
	}
}

// Prospective returns the future-system configuration of §6.2 with the
// given PFS bandwidth (GB/s) and node MTBF (years).
func Prospective(bandwidthGBps, nodeMTBFYears float64) Platform {
	return Platform{
		Name:            "Prospective",
		Nodes:           ProspectiveNodes,
		MemoryBytes:     ProspectiveMemoryBytes,
		BandwidthBps:    units.GBps(bandwidthGBps),
		NodeMTBFSeconds: units.Years(nodeMTBFYears),
	}
}

// Preset resolves a preset name, "cielo" or "prospective", to its
// platform with the given PFS bandwidth (GB/s) and node MTBF (years). ok
// is false for any other name.
func Preset(name string, bandwidthGBps, nodeMTBFYears float64) (Platform, bool) {
	switch name {
	case "cielo":
		return Cielo(bandwidthGBps, nodeMTBFYears), true
	case "prospective":
		return Prospective(bandwidthGBps, nodeMTBFYears), true
	}
	return Platform{}, false
}

// SystemMTBF returns the platform-level mean time between failures,
// NodeMTBF / Nodes.
func (p Platform) SystemMTBF() float64 {
	return p.NodeMTBFSeconds / float64(p.Nodes)
}

// Validate reports the first configuration error, if any.
func (p Platform) Validate() error {
	var errs []error
	if p.Nodes <= 0 {
		errs = append(errs, fmt.Errorf("platform %q: non-positive node count %d", p.Name, p.Nodes))
	}
	if p.MemoryBytes <= 0 {
		errs = append(errs, fmt.Errorf("platform %q: non-positive memory %v", p.Name, p.MemoryBytes))
	}
	if p.BandwidthBps <= 0 {
		errs = append(errs, fmt.Errorf("platform %q: non-positive bandwidth %v", p.Name, p.BandwidthBps))
	}
	if p.NodeMTBFSeconds <= 0 {
		errs = append(errs, fmt.Errorf("platform %q: non-positive node MTBF %v", p.Name, p.NodeMTBFSeconds))
	}
	return errors.Join(errs...)
}

// ErrNotAllocated is returned when releasing a job that holds no nodes.
var ErrNotAllocated = errors.New("platform: job holds no nodes")

// NoOwner marks a node with no current job in NodeMap lookups.
const NoOwner int32 = -1

// nodeRun is a run of consecutive node ids as it sits on a stack: from the
// bottom up it reads top+n-1, ..., top+1, top, so top is the id nearest
// the stack top and the next one popped.
type nodeRun struct {
	top, n int32
}

// heldRun is a run of nodes held by one job.
type heldRun struct {
	job int32
	nodeRun
}

// NodeMap tracks which job instance occupies each node, so that an injected
// node failure can be mapped to its victim job. Node identities matter only
// for that lookup; allocation hands out arbitrary free nodes (the paper's
// hot-spare policy keeps the pool size constant across failures).
//
// Stack order. The free nodes form a stack, initially 0 on top and n-1 at
// the bottom. Allocate pops the top q ids and Release pushes a job's ids
// back in the order they were popped, so which ids a job receives — and
// therefore which job a failure strikes — is a fixed function of the
// allocation history. The map stores the stack and the holdings as runs of
// consecutive ids rather than as ids: Allocate splits at most one run,
// Release merges a pushed run with the stack top when they are adjacent,
// and Owner scans the held runs. Every operation costs O(runs) instead of
// O(nodes), and the pop order is exactly that of a stack of single ids.
type NodeMap struct {
	total int
	nfree int
	free  []nodeRun // bottom first; the last run is the stack top
	// held lists every held run, each job's runs contiguous and in the
	// order they were popped. Its capacity tracks the peak number of held
	// runs, so steady-state calls stay allocation-free.
	held []heldRun
}

// NewNodeMap returns a map for n nodes, all free.
func NewNodeMap(n int) *NodeMap {
	m := &NodeMap{total: n}
	m.Reset()
	return m
}

// Reset frees every node, restoring the exact initial state of NewNodeMap
// (including the free-stack pop order) while retaining capacity. A reset
// map allocates nodes in the same order as a fresh one — required for
// bit-identical simulation replicates.
func (m *NodeMap) Reset() {
	m.free = m.free[:0]
	if m.total > 0 {
		// Pop order is ascending id; any deterministic order works.
		m.free = append(m.free, nodeRun{top: 0, n: int32(m.total)})
	}
	m.nfree = m.total
	m.held = m.held[:0]
}

// Free returns the number of unallocated nodes.
func (m *NodeMap) Free() int { return m.nfree }

// Total returns the platform node count.
func (m *NodeMap) Total() int { return m.total }

// Allocated returns the number of nodes currently held by jobs.
func (m *NodeMap) Allocated() int { return m.total - m.nfree }

// runsOf returns the bounds [i, k) of the job's runs in held; i == k when
// the job holds no nodes.
func (m *NodeMap) runsOf(job int32) (i, k int) {
	for i < len(m.held) && m.held[i].job != job {
		i++
	}
	k = i
	for k < len(m.held) && m.held[k].job == job {
		k++
	}
	return i, k
}

// Allocate reserves q nodes for the given job id. It reports false, without
// side effects, if fewer than q nodes are free or the job already holds
// nodes.
func (m *NodeMap) Allocate(job int32, q int) bool {
	if q <= 0 || q > m.nfree {
		return false
	}
	if i, k := m.runsOf(job); i < k {
		return false
	}
	// Runs k+1.. are taken whole; run k gives up its top rest ids.
	k, rest := len(m.free)-1, q
	for rest > int(m.free[k].n) {
		rest -= int(m.free[k].n)
		k--
	}
	r := m.free[k]
	m.held = append(m.held, heldRun{job, nodeRun{top: r.top, n: int32(rest)}})
	for _, whole := range m.free[k+1:] {
		m.held = append(m.held, heldRun{job, whole})
	}
	if int(r.n) == rest {
		m.free = m.free[:k]
	} else {
		m.free[k] = nodeRun{top: r.top + int32(rest), n: r.n - int32(rest)}
		m.free = m.free[:k+1]
	}
	m.nfree -= q
	return true
}

// Release frees all nodes held by the job, pushing its runs back onto the
// free stack in the order they were popped.
func (m *NodeMap) Release(job int32) error {
	i, k := m.runsOf(job)
	if i == k {
		return ErrNotAllocated
	}
	for _, h := range m.held[i:k] {
		r := h.nodeRun
		if last := len(m.free) - 1; last >= 0 && r.top+r.n == m.free[last].top {
			m.free[last] = nodeRun{top: r.top, n: r.n + m.free[last].n}
		} else {
			m.free = append(m.free, r)
		}
		m.nfree += int(r.n)
	}
	m.held = append(m.held[:i], m.held[k:]...)
	return nil
}

// Owner returns the job occupying the given node, or NoOwner if it is free.
func (m *NodeMap) Owner(node int32) int32 {
	for _, h := range m.held {
		if node >= h.top && node-h.top < h.n {
			return h.job
		}
	}
	return NoOwner
}

// Holding returns the number of nodes held by the job (0 if none).
func (m *NodeMap) Holding(job int32) int {
	i, k := m.runsOf(job)
	q := 0
	for _, h := range m.held[i:k] {
		q += int(h.n)
	}
	return q
}
