package dataset

import (
	"errors"
	"testing"

	"eefei/internal/mat"
)

func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	x, err := mat.NewDenseData(4, 2, []float64{
		1, 2,
		3, 4,
		5, 6,
		7, 8,
	})
	if err != nil {
		t.Fatalf("NewDenseData: %v", err)
	}
	return &Dataset{X: x, Labels: []int{0, 1, 0, 1}, Classes: 2}
}

func TestLenDim(t *testing.T) {
	d := tinyDataset(t)
	if d.Len() != 4 || d.Dim() != 2 {
		t.Errorf("Len,Dim = %d,%d, want 4,2", d.Len(), d.Dim())
	}
	var nilDS *Dataset
	if nilDS.Len() != 0 || nilDS.Dim() != 0 {
		t.Error("nil dataset must have Len=Dim=0")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Dataset)
		wantErr bool
	}{
		{"valid", func(*Dataset) {}, false},
		{"label count mismatch", func(d *Dataset) { d.Labels = d.Labels[:2] }, true},
		{"label out of range", func(d *Dataset) { d.Labels[0] = 2 }, true},
		{"negative label", func(d *Dataset) { d.Labels[0] = -1 }, true},
		{"zero classes", func(d *Dataset) { d.Classes = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := tinyDataset(t)
			tt.mutate(d)
			if err := d.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	empty := &Dataset{}
	if err := empty.Validate(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty Validate = %v, want ErrEmpty", err)
	}
}

func TestSubset(t *testing.T) {
	d := tinyDataset(t)
	sub, err := d.Subset([]int{2, 0})
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	if sub.Len() != 2 {
		t.Fatalf("subset Len = %d, want 2", sub.Len())
	}
	if sub.X.At(0, 0) != 5 || sub.Labels[0] != 0 {
		t.Errorf("subset row 0 = %v label %d, want [5 6] label 0", sub.X.Row(0), sub.Labels[0])
	}
	if sub.X.At(1, 1) != 2 || sub.Labels[1] != 0 {
		t.Errorf("subset row 1 = %v label %d", sub.X.Row(1), sub.Labels[1])
	}
	// Subset must be independent of the parent.
	sub.X.Set(0, 0, 99)
	if d.X.At(2, 0) != 5 {
		t.Error("Subset must copy data")
	}
	if _, err := d.Subset([]int{4}); err == nil {
		t.Error("out-of-range Subset must error")
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	d := tinyDataset(t)
	// Tag each row's first feature with its original label so pairing can be
	// checked after shuffling.
	for i := 0; i < d.Len(); i++ {
		d.X.Set(i, 0, float64(d.Labels[i]))
	}
	d.Shuffle(mat.NewRNG(3))
	for i := 0; i < d.Len(); i++ {
		if int(d.X.At(i, 0)) != d.Labels[i] {
			t.Fatalf("row %d decoupled from its label after shuffle", i)
		}
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a := tinyDataset(t)
	b := tinyDataset(t)
	a.Shuffle(mat.NewRNG(5))
	b.Shuffle(mat.NewRNG(5))
	for i := 0; i < a.Len(); i++ {
		if a.Labels[i] != b.Labels[i] || a.X.At(i, 0) != b.X.At(i, 0) {
			t.Fatal("same-seed shuffles must agree")
		}
	}
}

func TestClassCounts(t *testing.T) {
	d := tinyDataset(t)
	counts := classCounts(d)
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("classCounts = %v, want [2 2]", counts)
	}
}

// classCounts returns a histogram of d's labels.
func classCounts(d *Dataset) []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Labels {
		counts[y]++
	}
	return counts
}
