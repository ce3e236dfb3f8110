package dataset

import (
	"fmt"
	"sort"

	"eefei/internal/mat"
)

// The partitioners split a dataset across edge servers. The paper uniformly
// allocates 60 000 samples to 20 servers (3 000 each, IID); the label-skew
// partitioner is the standard non-IID extension we use for the ablation in
// EXPERIMENTS.md. Each Partition returns one shard per server, and every
// sample is assigned to exactly one shard. The shards are copies: d is left
// unchanged, and a caller may keep one shard and let d and the others go.

// IIDPartitioner deals samples round-robin after a seeded shuffle, producing
// shards with near-identical class distributions (the paper's setting).
type IIDPartitioner struct {
	// Seed drives the shuffle; identical seeds give identical shards.
	Seed uint64
}

// Partition splits d into servers IID shards.
func (p IIDPartitioner) Partition(d *Dataset, servers int) ([]*Dataset, error) {
	if err := checkPartitionArgs(d, servers); err != nil {
		return nil, err
	}
	perm := mat.NewRNG(p.Seed).Perm(d.Len())
	buckets := make([][]int, servers)
	for i, row := range perm {
		s := i % servers
		buckets[s] = append(buckets[s], row)
	}
	return subsets(d, buckets)
}

// LabelSkewPartitioner gives each server a biased class mix: a fraction
// Alpha of each shard comes from the server's "home" classes (assigned
// round-robin) and the remainder is drawn IID. Alpha=0 degenerates to IID;
// Alpha=1 is pathological single-class shards.
type LabelSkewPartitioner struct {
	// Alpha in [0,1] is the fraction of each shard drawn from home classes.
	Alpha float64
	// Seed drives all random choices.
	Seed uint64
}

// Partition splits d into servers label-skewed shards.
func (p LabelSkewPartitioner) Partition(d *Dataset, servers int) ([]*Dataset, error) {
	if err := checkPartitionArgs(d, servers); err != nil {
		return nil, err
	}
	if p.Alpha < 0 || p.Alpha > 1 {
		return nil, fmt.Errorf("dataset: label-skew alpha %v outside [0,1]", p.Alpha)
	}
	rng := mat.NewRNG(p.Seed)

	// Index rows by class, shuffled within class.
	byClass := make([][]int, d.Classes)
	for row, y := range d.Labels {
		byClass[y] = append(byClass[y], row)
	}
	for _, rows := range byClass {
		shuffleInts(rng, rows)
	}

	shardSize := d.Len() / servers
	homePerShard := int(p.Alpha * float64(shardSize))
	buckets := make([][]int, servers)

	// Draw home-class samples: server s prefers class s mod Classes, walking
	// forward when its home class runs dry.
	cursor := make([]int, d.Classes)
	for s := 0; s < servers; s++ {
		home := s % d.Classes
		for len(buckets[s]) < homePerShard {
			c, ok := nextNonEmptyClass(byClass, cursor, home)
			if !ok {
				break
			}
			buckets[s] = append(buckets[s], byClass[c][cursor[c]])
			cursor[c]++
		}
	}

	// Pool the remaining rows and deal them round-robin.
	var rest []int
	for c, rows := range byClass {
		rest = append(rest, rows[cursor[c]:]...)
	}
	shuffleInts(rng, rest)
	for i, row := range rest {
		s := i % servers
		buckets[s] = append(buckets[s], row)
	}
	return subsets(d, buckets)
}

// nextNonEmptyClass finds the first class with rows remaining, starting from
// the preferred class and wrapping.
func nextNonEmptyClass(byClass [][]int, cursor []int, preferred int) (int, bool) {
	n := len(byClass)
	for off := 0; off < n; off++ {
		c := (preferred + off) % n
		if cursor[c] < len(byClass[c]) {
			return c, true
		}
	}
	return 0, false
}

// EqualShards splits d into exactly servers shards of Len/servers samples,
// truncating any remainder, matching the paper's "3000 samples per edge
// server" allocation. A seeded permutation deals the rows; each shard keeps
// its rows in ascending order of their index in d.
//
// The shards are views, not copies: EqualShards reorders d in place into
// shard order and returns each shard as a row view of it, so d becomes the
// shards' storage and no longer holds its original row order. Its first
// servers·(Len/servers) rows are the shards back to back, the truncated
// remainder follows. Each shard's Labels is capacity-limited, so an append
// reallocates instead of spilling into the next shard. Use a partitioner
// where the shards must be independent of d.
func EqualShards(d *Dataset, servers int, seed uint64) ([]*Dataset, error) {
	if err := checkPartitionArgs(d, servers); err != nil {
		return nil, err
	}
	if len(d.Labels) != d.Len() {
		return nil, fmt.Errorf("dataset: %d labels for %d rows", len(d.Labels), d.Len())
	}
	per := d.Len() / servers
	order := mat.NewRNG(seed).Perm(d.Len())
	for s := 0; s < servers; s++ {
		sort.Ints(order[s*per : (s+1)*per]) // deterministic row order inside a shard
	}
	d.gatherRows(order)
	out := make([]*Dataset, servers)
	for s := range out {
		lo, hi := s*per, (s+1)*per
		x := d.X.SliceRows(lo, hi)
		out[s] = &Dataset{X: &x, Labels: d.Labels[lo:hi:hi], Classes: d.Classes}
	}
	return out, nil
}

// gatherRows reorders d in place so that row i holds what row src[i] held.
// It follows src's cycles with one row of scratch, so src must be a
// permutation of [0, Len); it is consumed, every entry ending as its own
// index.
func (d *Dataset) gatherRows(src []int) {
	tmp := make([]float64, d.Dim())
	for start := range src {
		if src[start] == start {
			continue
		}
		copy(tmp, d.X.Row(start))
		label := d.Labels[start]
		i := start
		for src[i] != start {
			j := src[i]
			copy(d.X.Row(i), d.X.Row(j))
			d.Labels[i] = d.Labels[j]
			src[i] = i
			i = j
		}
		copy(d.X.Row(i), tmp)
		d.Labels[i] = label
		src[i] = i
	}
}

func checkPartitionArgs(d *Dataset, servers int) error {
	if d.Len() == 0 {
		return ErrEmpty
	}
	if servers <= 0 {
		return fmt.Errorf("dataset: %d servers", servers)
	}
	if servers > d.Len() {
		return fmt.Errorf("dataset: %d servers for %d samples", servers, d.Len())
	}
	return nil
}

func subsets(d *Dataset, buckets [][]int) ([]*Dataset, error) {
	out := make([]*Dataset, len(buckets))
	for s, rows := range buckets {
		shard, err := d.Subset(rows)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		out[s] = shard
	}
	return out, nil
}

func shuffleInts(rng *mat.RNG, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
