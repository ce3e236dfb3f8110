package dataset

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"eefei/internal/mat"
)

func syntheticForPartition(t *testing.T, samples int) *Dataset {
	t.Helper()
	cfg := QuickSyntheticConfig()
	cfg.Samples = samples
	cfg.Side = 4 // tiny features; partition tests don't train
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return d
}

func TestIIDPartitionCoversAllSamples(t *testing.T) {
	d := syntheticForPartition(t, 100)
	shards, err := IIDPartitioner{Seed: 1}.Partition(d, 7)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != d.Len() {
		t.Errorf("shards hold %d samples, want %d", total, d.Len())
	}
}

func TestIIDPartitionBalanced(t *testing.T) {
	d := syntheticForPartition(t, 100)
	shards, err := IIDPartitioner{Seed: 1}.Partition(d, 10)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for i, s := range shards {
		if s.Len() != 10 {
			t.Errorf("shard %d size = %d, want 10", i, s.Len())
		}
	}
}

func TestIIDPartitionNearUniformClasses(t *testing.T) {
	d := syntheticForPartition(t, 1000)
	shards, err := IIDPartitioner{Seed: 2}.Partition(d, 5)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for i, s := range shards {
		counts := classCounts(s)
		want := s.Len() / d.Classes
		for c, n := range counts {
			if n < want/2 || n > want*2 {
				t.Errorf("shard %d class %d count = %d, want ≈%d", i, c, n, want)
			}
		}
	}
}

func TestIIDPartitionDeterministic(t *testing.T) {
	d := syntheticForPartition(t, 60)
	a, _ := IIDPartitioner{Seed: 9}.Partition(d, 4)
	b, _ := IIDPartitioner{Seed: 9}.Partition(d, 4)
	for s := range a {
		if a[s].Len() != b[s].Len() {
			t.Fatal("same seed must give same shard sizes")
		}
		for i := range a[s].Labels {
			if a[s].Labels[i] != b[s].Labels[i] {
				t.Fatal("same seed must give identical shards")
			}
		}
	}
}

func TestLabelSkewAlphaZeroIsLegal(t *testing.T) {
	d := syntheticForPartition(t, 200)
	shards, err := LabelSkewPartitioner{Alpha: 0, Seed: 1}.Partition(d, 4)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != d.Len() {
		t.Errorf("alpha=0 shards hold %d, want %d", total, d.Len())
	}
}

func TestLabelSkewConcentratesHomeClass(t *testing.T) {
	d := syntheticForPartition(t, 1000)
	shards, err := LabelSkewPartitioner{Alpha: 0.8, Seed: 3}.Partition(d, 10)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for s, shard := range shards {
		home := s % d.Classes
		counts := classCounts(shard)
		frac := float64(counts[home]) / float64(shard.Len())
		if frac < 0.5 {
			t.Errorf("shard %d home-class fraction = %.2f, want >= 0.5", s, frac)
		}
	}
}

func TestLabelSkewRejectsBadAlpha(t *testing.T) {
	d := syntheticForPartition(t, 100)
	for _, alpha := range []float64{-0.1, 1.1} {
		if _, err := (LabelSkewPartitioner{Alpha: alpha}).Partition(d, 2); err == nil {
			t.Errorf("alpha %v must be rejected", alpha)
		}
	}
}

func TestLabelSkewCoversAllSamples(t *testing.T) {
	d := syntheticForPartition(t, 500)
	shards, err := LabelSkewPartitioner{Alpha: 0.5, Seed: 4}.Partition(d, 7)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != d.Len() {
		t.Errorf("shards hold %d samples, want %d", total, d.Len())
	}
}

func TestEqualShards(t *testing.T) {
	d := syntheticForPartition(t, 103)
	shards, err := EqualShards(d, 10, 5)
	if err != nil {
		t.Fatalf("EqualShards: %v", err)
	}
	if len(shards) != 10 {
		t.Fatalf("got %d shards, want 10", len(shards))
	}
	for i, s := range shards {
		if s.Len() != 10 {
			t.Errorf("shard %d size = %d, want 10 (remainder truncated)", i, s.Len())
		}
	}
}

func TestEqualShardsDisjoint(t *testing.T) {
	d := syntheticForPartition(t, 100)
	// Tag each row with its index so disjointness is checkable.
	for i := 0; i < d.Len(); i++ {
		d.X.Set(i, 0, float64(i))
	}
	shards, err := EqualShards(d, 4, 6)
	if err != nil {
		t.Fatalf("EqualShards: %v", err)
	}
	seen := make(map[int]bool)
	for _, s := range shards {
		for i := 0; i < s.Len(); i++ {
			id := int(s.X.At(i, 0))
			if seen[id] {
				t.Fatalf("sample %d appears in two shards", id)
			}
			seen[id] = true
		}
	}
}

// equalShardsCopying is EqualShards as it was when every shard was a copy:
// one Subset per bucket of the seeded permutation, rows ascending. It leaves
// d unchanged and is the reference the views must reproduce.
func equalShardsCopying(d *Dataset, servers int, seed uint64) ([]*Dataset, error) {
	per := d.Len() / servers
	perm := mat.NewRNG(seed).Perm(d.Len())
	out := make([]*Dataset, servers)
	for s := range out {
		b := append([]int(nil), perm[s*per:(s+1)*per]...)
		sort.Ints(b)
		shard, err := d.Subset(b)
		if err != nil {
			return nil, err
		}
		out[s] = shard
	}
	return out, nil
}

// TestEqualShardsMatchesCopyingReference: the views hold the rows and labels
// the copying EqualShards dealt, in the same order, at sizes that divide and
// that truncate.
func TestEqualShardsMatchesCopyingReference(t *testing.T) {
	for _, size := range []struct{ samples, servers int }{{100, 4}, {103, 10}, {7, 7}} {
		for _, seed := range []uint64{1, 5, 7} {
			d := syntheticForPartition(t, size.samples)
			want, err := equalShardsCopying(d, size.servers, seed)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := EqualShards(d, size.servers, seed)
			if err != nil {
				t.Fatalf("EqualShards: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d/%d seed %d: %d shards, want %d", size.samples, size.servers, seed, len(got), len(want))
			}
			for s := range want {
				g, w := got[s], want[s]
				if g.Len() != w.Len() || g.Dim() != w.Dim() || g.Classes != w.Classes {
					t.Fatalf("%d/%d seed %d shard %d: %dx%d/%d, want %dx%d/%d", size.samples, size.servers, seed, s,
						g.Len(), g.Dim(), g.Classes, w.Len(), w.Dim(), w.Classes)
				}
				for i, v := range w.X.RawData() {
					if math.Float64bits(g.X.RawData()[i]) != math.Float64bits(v) {
						t.Fatalf("%d/%d seed %d shard %d: element %d = %v, want %v", size.samples, size.servers, seed, s, i, g.X.RawData()[i], v)
					}
				}
				for i, y := range w.Labels {
					if g.Labels[i] != y {
						t.Fatalf("%d/%d seed %d shard %d: label %d = %d, want %d", size.samples, size.servers, seed, s, i, g.Labels[i], y)
					}
				}
			}
		}
	}
}

// TestEqualShardsAreViews: every shard is a window of the one backing block,
// shard s at offset s·per, so the shards are disjoint and in order; and
// appending to one shard's labels cannot overwrite the next shard's.
func TestEqualShardsAreViews(t *testing.T) {
	const servers = 10
	d := syntheticForPartition(t, 103)
	block, labels := d.X.RawData(), d.Labels
	shards, err := EqualShards(d, servers, 5)
	if err != nil {
		t.Fatalf("EqualShards: %v", err)
	}
	per, dim := d.Len()/servers, d.Dim()
	for s, sh := range shards {
		raw := sh.X.RawData()
		if len(raw) != per*dim || &raw[0] != &block[s*per*dim] {
			t.Fatalf("shard %d: %d values not at offset %d of the backing block", s, len(raw), s*per*dim)
		}
		if len(sh.Labels) != per || cap(sh.Labels) != per || &sh.Labels[0] != &labels[s*per] {
			t.Fatalf("shard %d: labels len %d cap %d not a capped window at %d", s, len(sh.Labels), cap(sh.Labels), s*per)
		}
	}
	next := append([]int(nil), shards[1].Labels...)
	_ = append(shards[0].Labels, -1, -1)
	for i, y := range next {
		if shards[1].Labels[i] != y {
			t.Fatalf("append to shard 0 changed shard 1 label %d: %d → %d", i, y, shards[1].Labels[i])
		}
	}
}

// TestEqualShardsAllocatesNoCopy pins the point of the views: sharding a
// 2000×784 set allocates the permutation and one row of scratch, far under
// the 12.5 MB a copy of X would take.
func TestEqualShardsAllocatesNoCopy(t *testing.T) {
	const rows, cols = 2000, 784
	d := &Dataset{X: mat.NewDense(rows, cols), Labels: make([]int, rows), Classes: 10}
	rng := mat.NewRNG(3)
	for i := range d.Labels {
		d.Labels[i] = i % d.Classes
		d.X.Set(i, 0, rng.Norm())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := EqualShards(d, 20, 1); err != nil {
		t.Fatalf("EqualShards: %v", err)
	}
	runtime.ReadMemStats(&after)
	xBytes := uint64(rows * cols * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got >= xBytes/8 {
		t.Errorf("EqualShards allocated %d bytes, want < %d (1/8 of X)", got, xBytes/8)
	}
}

func TestPartitionArgErrors(t *testing.T) {
	d := syntheticForPartition(t, 10)
	if _, err := (IIDPartitioner{}).Partition(&Dataset{}, 2); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty dataset = %v, want ErrEmpty", err)
	}
	if _, err := (IIDPartitioner{}).Partition(d, 0); err == nil {
		t.Error("0 servers must error")
	}
	if _, err := (IIDPartitioner{}).Partition(d, 11); err == nil {
		t.Error("more servers than samples must error")
	}
	if _, err := EqualShards(d, 11, 0); err == nil {
		t.Error("EqualShards with more servers than samples must error")
	}
	if _, err := EqualShards(&Dataset{X: mat.NewDense(4, 2), Labels: []int{0}, Classes: 1}, 2, 0); err == nil {
		t.Error("EqualShards with fewer labels than rows must error")
	}
}

// Property: IID partitioning never loses or duplicates samples for any
// server count that divides into the dataset.
func TestIIDPartitionConservationProperty(t *testing.T) {
	cfg := QuickSyntheticConfig()
	cfg.Samples = 120
	cfg.Side = 3
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	for i := 0; i < d.Len(); i++ {
		d.X.Set(i, 0, float64(i))
	}
	f := func(seed uint64, serversRaw uint8) bool {
		servers := 1 + int(serversRaw%20)
		shards, err := IIDPartitioner{Seed: seed}.Partition(d, servers)
		if err != nil {
			return false
		}
		seen := make(map[int]int)
		for _, s := range shards {
			for i := 0; i < s.Len(); i++ {
				seen[int(s.X.At(i, 0))]++
			}
		}
		if len(seen) != d.Len() {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
