// Package burstbuffer implements the paper's principal future-work item
// (§8): "As burst-buffers and other NVRAM storage mechanisms become more
// common, a natural extension of this work would consider their impact on
// I/O contention/interference."
//
// The model is a two-tier checkpoint path. Jobs commit checkpoints to a
// node-local burst-buffer tier at per-node NVRAM bandwidth — fast, and
// free of cross-job contention — and the buffered image then drains
// asynchronously to the parallel file system through the ordinary I/O
// scheduling discipline, without blocking the job. Consequences faithful
// to the §8 discussion:
//
//   - the commit time C seen by a job shrinks to the burst-buffer write
//     time, so the Young/Daly period shortens and checkpoints become more
//     frequent ("an increase in the optimal checkpoint frequency");
//   - the PFS sees drain traffic instead of blocking commits, which the
//     cooperative scheduler can order like any other request ("scheduling
//     parallel filesystem I/O with a heuristic that prioritizes jobs to
//     minimize failure impact can help to improve overall burst-buffer
//     efficiencies");
//   - with a node-local (non-resilient) buffer, a checkpoint only becomes
//     usable for recovery once its drain completes — a failure destroys
//     the buffered image along with the nodes. A resilient (shared
//     appliance) buffer makes the checkpoint durable at buffer-commit
//     time and serves recovery reads at buffer speed.
//
// A drain that is superseded by a newer checkpoint of the same job is
// cancelled: only the latest image is worth shipping.
package burstbuffer

import "fmt"

// PeriodModel selects how Young/Daly periods are derived when the buffer
// is active.
type PeriodModel int

const (
	// PeriodCooperative (the default) derives each class's period from
	// the generalised Theorem 1: the per-period overhead is priced at
	// the (cheap) buffer-commit time while the I/O constraint is priced
	// at the PFS drain occupancy, P_i = sqrt(2µN/q²·(q/N·C_bb + λ·C_drain)).
	// Checkpoints are as frequent as the drain bandwidth can keep
	// durable — the §8 burst-buffer efficiency heuristic built from the
	// paper's own machinery.
	PeriodCooperative PeriodModel = iota
	// PeriodNaive applies Young/Daly to the buffer-commit time alone.
	// With a non-resilient buffer this is a documented trap: the
	// shortened period generates drain traffic the PFS cannot absorb,
	// durability collapses, and failures roll back catastrophically
	// (TestNaiveNodeLocalBufferOnStarvedPFSBackfires, internal/engine).
	// The wire ("period":"naive") and the façade
	// (BurstBufferPeriodNaive) expose it.
	PeriodNaive
)

func (m PeriodModel) String() string {
	switch m {
	case PeriodCooperative:
		return "cooperative"
	case PeriodNaive:
		return "naive"
	default:
		return fmt.Sprintf("PeriodModel(%d)", int(m))
	}
}

// Config enables and parameterises the burst-buffer tier.
type Config struct {
	// PerNodeBandwidthBps is the NVRAM write bandwidth contributed by
	// each compute node; a job of q nodes commits at q times this rate.
	PerNodeBandwidthBps float64
	// Resilient marks the buffer tier failure-independent of compute
	// nodes (a shared appliance): checkpoints are durable at
	// buffer-commit time and recovery reads run at buffer speed. When
	// false (node-local NVRAM), durability requires the PFS drain.
	Resilient bool
	// DrainToPFS ships each buffered checkpoint to the parallel file
	// system. Meaningful to disable only for a Resilient buffer (e.g.
	// to study a PFS-free checkpoint path); a non-resilient buffer
	// without drains would never secure anything, which Validate
	// rejects.
	DrainToPFS bool
	// Period selects the Daly-period derivation (see PeriodModel).
	Period PeriodModel
}

// Default returns a typical node-local NVRAM configuration: 1 GB/s per
// node, drains enabled, cooperative period derivation.
func Default() Config {
	return Config{PerNodeBandwidthBps: 1e9, DrainToPFS: true}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.PerNodeBandwidthBps <= 0 {
		return fmt.Errorf("burstbuffer: non-positive per-node bandwidth %v", c.PerNodeBandwidthBps)
	}
	if !c.Resilient && !c.DrainToPFS {
		return fmt.Errorf("burstbuffer: a node-local buffer without PFS drains can never secure a checkpoint")
	}
	return nil
}

// CommitSeconds returns the buffer-commit time of a checkpoint of the
// given size for a job of q nodes.
func (c Config) CommitSeconds(sizeBytes float64, q int) float64 {
	return sizeBytes / (c.PerNodeBandwidthBps * float64(q))
}
