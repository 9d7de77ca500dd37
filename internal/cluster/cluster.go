// Package cluster implements the distributed runtime of Section 5.3: P
// workers over a D×V token matrix split into P×P partitions, with
// VisitByRow owning row slices, VisitByColumn owning column slices, and
// an alltoall block exchange between unlike phases.
//
// The paper runs on Tianhe-2 over MPI/InfiniBand. Here Distributed runs
// the sharded execution in-process — P Workers (phase.go) exchanging
// their blocks through shared memory — and internal/dist runs the same
// Worker in separate processes over TCP. Distributed.Model is the cost
// model behind the scaling figures: the sampling runs for real on the
// sharded chain (so convergence traces are genuine), and wall-clock
// speedups are replaced by a *modeled time* combining one measured
// per-token compute cost, the partition's load balance, and a network
// model for the bytes each worker must move. Communication and
// computation overlap, as the 2-level blocking of Section 5.3.2
// achieves.
package cluster

import (
	"slices"

	"warplda/internal/sparse"
)

// NetworkModel is the cost model for inter-worker communication.
type NetworkModel struct {
	BandwidthBytesPerSec float64 // per-worker bidirectional bandwidth
	LatencySec           float64 // per-message latency
}

// InfiniBand approximates the paper's FDR InfiniBand fabric.
func InfiniBand() NetworkModel {
	return NetworkModel{BandwidthBytesPerSec: 5e9, LatencySec: 2e-6}
}

// Gigabit approximates commodity 1GbE (for what-if comparisons).
func Gigabit() NetworkModel {
	return NetworkModel{BandwidthBytesPerSec: 1.25e8, LatencySec: 50e-6}
}

// Stats describes one modeled iteration.
type Stats struct {
	// ComputeSeconds is the modeled compute time: the per-token cost
	// scaled by the heaviest worker's token share.
	ComputeSeconds float64
	// CommSeconds is the modeled alltoall + allreduce time of the
	// heaviest sender.
	CommSeconds float64
	// ModeledSeconds is the iteration's modeled distributed duration:
	// max(compute, comm) thanks to block overlap, plus latency residue.
	ModeledSeconds float64
	// BytesMoved is the total alltoall traffic of the iteration.
	BytesMoved int64
	// Imbalance is the token imbalance index of the heavier phase.
	Imbalance float64
}

// Model returns the Stats of one iteration of this topology if sampling
// costs perPhaseTokenSec per token and phase on every worker: each
// phase's compute is bounded by its heaviest worker, and each exchange
// by its heaviest sender over net.
func (d *Distributed) Model(perPhaseTokenSec float64, net NetworkModel) Stats {
	word, doc := d.load(0), d.load(1)
	compute := float64(slices.Max(word)+slices.Max(doc)) * perPhaseTokenSec

	// A shipped token entry is its topic and M proposals, 4 bytes each.
	// Two boundaries per iteration (word→doc, doc→word) plus the c_k
	// allreduce (2·K·4 bytes per worker, log P rounds approximated flat).
	entryBytes := 4 * (d.cfg.M + 1)
	barrier := net.LatencySec * float64(d.p-1)
	afterWord := float64(slices.Max(d.ship[0])*entryBytes)/net.BandwidthBytesPerSec + barrier
	afterDoc := float64(slices.Max(d.ship[1])*entryBytes)/net.BandwidthBytesPerSec + barrier
	comm := afterDoc + afterWord + float64(8*d.cfg.K)/net.BandwidthBytesPerSec

	// Fully overlapped, the slower plane dominates; the phase-boundary
	// barriers leave a latency residue.
	modeled := max(compute, comm) + net.LatencySec*2

	var shipped int
	for i := range d.ship[0] {
		shipped += d.ship[0][i] + d.ship[1][i]
	}
	return Stats{
		ComputeSeconds: compute,
		CommSeconds:    comm,
		ModeledSeconds: modeled,
		BytesMoved:     int64(shipped * entryBytes),
		Imbalance:      max(imbalance(word), imbalance(doc)),
	}
}

// load returns how many tokens each worker samples in phase ph (0 word,
// 1 doc): what the exchange after the other phase delivers to it.
func (d *Distributed) load(ph int) []int { return d.recv[1-ph] }

// imbalance is sparse.ImbalanceIndex of per-worker token counts.
func imbalance(loads []int) float64 {
	l := make([]int64, len(loads))
	for i, n := range loads {
		l[i] = int64(n)
	}
	return sparse.ImbalanceIndex(l)
}

// ModeledThroughput returns tokens/second under the model for one
// iteration's stats.
func (st Stats) ModeledThroughput(tokens int) float64 {
	if st.ModeledSeconds <= 0 {
		return 0
	}
	return float64(tokens) / st.ModeledSeconds
}
