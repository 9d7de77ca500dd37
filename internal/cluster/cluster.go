// Package cluster implements the distributed runtime of Section 5.3: P
// workers over a D×V token matrix split into P×P partitions, with
// VisitByRow owning row slices, VisitByColumn owning column slices, and
// an alltoall block exchange between unlike phases.
//
// The paper runs on Tianhe-2 over MPI/InfiniBand. Here Distributed runs
// the sharded execution in-process — P Workers (phase.go) exchanging
// their blocks through shared memory — and internal/dist runs the same
// Worker in separate processes over TCP. Sim is the cost model behind
// the scaling figures: the sampling runs for real on core.Warp (so
// convergence traces are genuine), and wall-clock speedups are replaced
// by a *modeled time* combining one measured per-token compute cost, the
// partition's load balance, and a network model for the bytes each
// worker must move. Communication and computation overlap, as the
// 2-level blocking of Section 5.3.2 achieves.
package cluster

import (
	"fmt"
	"io"
	"time"

	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/sampler"
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

// Config configures a simulated cluster.
type Config struct {
	Workers int
	Network NetworkModel
}

// Stats describes one simulated iteration.
type Stats struct {
	// WallSeconds is the measured single-machine execution time of the
	// iteration's real sampling work (zero from Model).
	WallSeconds float64
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

// Sim runs WarpLDA on a simulated cluster.
type Sim struct {
	cfg     Config
	scfg    sampler.Config
	warp    *core.Warp
	c       *corpus.Corpus
	rowPart *sparse.Partition
	colPart *sparse.Partition

	tokens         int
	rowLoad        []int64 // tokens per worker in the doc phase
	colLoad        []int64 // tokens per worker in the word phase
	sendRowToCol   []int64 // bytes worker i ships at the row→col boundary
	sendColToRow   []int64 // bytes worker i ships at the col→row boundary
	entryBytes     int64
	modeledSeconds float64
}

// New builds a simulated cluster around a real WarpLDA sampler. Rows
// (documents) and columns (words) are partitioned with the paper's greedy
// strategy.
func New(c *corpus.Corpus, scfg sampler.Config, cfg Config) (*Sim, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("cluster: %d workers", cfg.Workers)
	}
	if cfg.Network.BandwidthBytesPerSec <= 0 {
		cfg.Network = InfiniBand()
	}
	w, err := core.New(c, scfg)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:        cfg,
		scfg:       scfg,
		warp:       w,
		c:          c,
		tokens:     c.NumTokens(),
		entryBytes: int64(4 * (scfg.M + 1)),
	}

	tf := c.TermFrequencies()
	s.colPart = sparse.GreedyPartition(tf, cfg.Workers)
	dl := make([]int, c.NumDocs())
	for d, doc := range c.Docs {
		dl[d] = len(doc)
	}
	s.rowPart = sparse.GreedyPartition(dl, cfg.Workers)
	s.rowLoad = s.rowPart.Loads(dl)
	s.colLoad = s.colPart.Loads(tf)

	// Block token counts: blocks[i][j] = tokens in partition (rowOwner i,
	// colOwner j). Off-diagonal blocks cross workers at phase boundaries.
	blocks := make([][]int64, cfg.Workers)
	for i := range blocks {
		blocks[i] = make([]int64, cfg.Workers)
	}
	for d, doc := range c.Docs {
		ri := s.rowPart.Assign[d]
		for _, w := range doc {
			blocks[ri][s.colPart.Assign[w]]++
		}
	}
	s.sendRowToCol = make([]int64, cfg.Workers)
	s.sendColToRow = make([]int64, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		for j := 0; j < cfg.Workers; j++ {
			if i == j {
				continue
			}
			s.sendRowToCol[i] += blocks[i][j] * s.entryBytes
			s.sendColToRow[j] += blocks[i][j] * s.entryBytes
		}
	}
	return s, nil
}

// Name implements sampler.Sampler.
func (s *Sim) Name() string { return fmt.Sprintf("WarpLDA[%dworkers]", s.cfg.Workers) }

// Assignments implements sampler.Sampler.
func (s *Sim) Assignments() [][]int32 { return s.warp.Assignments() }

const simStateTag = "sim \x01"

// StateTo writes Sim's one-shard checkpoint stream: the wrapped WarpLDA
// sampler's state plus the accumulated modeled time, so a resumed
// simulation continues both the chain and its cost accounting.
func (s *Sim) StateTo(w io.Writer) error {
	e := sampler.NewEnc(w)
	e.Tag(simStateTag)
	e.F64(s.modeledSeconds)
	if err := e.Err(); err != nil {
		return err
	}
	return s.warp.StateTo(w)
}

// RestoreFrom restores what StateTo wrote.
func (s *Sim) RestoreFrom(r io.Reader) error {
	d := sampler.NewDec(r)
	d.Tag(simStateTag)
	modeled := d.F64()
	if err := d.Err(); err != nil {
		return err
	}
	if err := s.warp.RestoreFrom(r); err != nil {
		return err
	}
	s.modeledSeconds = modeled
	return nil
}

// Iterate implements sampler.Sampler: it executes the real sampling
// iteration and accumulates its modeled time. Use IterateStats to also
// receive the cost breakdown.
func (s *Sim) Iterate() { s.IterateStats() }

// IterateStats is Iterate returning the iteration's Stats: Model of the
// per-token cost measured on this iteration. One iteration touches every
// token twice (word phase + doc phase), so that cost is wall/(2T).
func (s *Sim) IterateStats() Stats {
	start := time.Now()
	s.warp.Iterate()
	wall := time.Since(start).Seconds()
	st := s.Model(wall / float64(2*max(1, s.tokens)))
	st.WallSeconds = wall
	s.modeledSeconds += st.ModeledSeconds
	return st
}

// Model returns the Stats of one iteration on this topology if sampling
// costs perPhaseTokenSec per token and phase on every worker: each
// phase's compute is bounded by its heaviest worker, and the traffic by
// the heaviest sender.
func (s *Sim) Model(perPhaseTokenSec float64) Stats {
	compute := float64(maxOf(s.colLoad)+maxOf(s.rowLoad)) * perPhaseTokenSec

	// Two boundaries per iteration (row→col, col→row) plus the c_k
	// allreduce (2·K·4 bytes per worker, log P rounds approximated flat).
	net := s.cfg.Network
	commRowCol := float64(maxOf(s.sendRowToCol))/net.BandwidthBytesPerSec +
		net.LatencySec*float64(s.cfg.Workers-1)
	commColRow := float64(maxOf(s.sendColToRow))/net.BandwidthBytesPerSec +
		net.LatencySec*float64(s.cfg.Workers-1)
	ckBytes := float64(8 * s.scfg.K)
	comm := commRowCol + commColRow + ckBytes/net.BandwidthBytesPerSec

	modeled := compute
	if comm > modeled {
		modeled = comm // fully overlapped: the slower plane dominates
	}
	modeled += net.LatencySec * 2 // phase-boundary barrier residue

	var bytes int64
	for i := range s.sendRowToCol {
		bytes += s.sendRowToCol[i] + s.sendColToRow[i]
	}
	return Stats{
		ComputeSeconds: compute,
		CommSeconds:    comm,
		ModeledSeconds: modeled,
		BytesMoved:     bytes,
		Imbalance:      maxImbalance(s.rowLoad, s.colLoad),
	}
}

// ModeledSeconds returns cumulative modeled time over all iterations.
func (s *Sim) ModeledSeconds() float64 { return s.modeledSeconds }

// ModeledThroughput returns tokens/second under the model for one
// iteration's stats.
func (st Stats) ModeledThroughput(tokens int) float64 {
	if st.ModeledSeconds <= 0 {
		return 0
	}
	return float64(tokens) / st.ModeledSeconds
}

func maxImbalance(a, b []int64) float64 {
	x := sparse.ImbalanceIndex(a)
	if y := sparse.ImbalanceIndex(b); y > x {
		return y
	}
	return x
}

func maxOf(s []int64) int64 {
	var m int64
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}
