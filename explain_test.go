package emdsearch

import (
	"context"
	"math"
	"testing"
)

func TestExplainDecomposition(t *testing.T) {
	eng, err := NewEngine(LinearCost(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 of the paper: x vs z moves 0.2 across distance 2 and
	// 0.3 across distance 4.
	x := Histogram{0.5, 0, 0.2, 0, 0.3, 0}
	z := Histogram{1, 0, 0, 0, 0, 0}
	eng.Add("z", z)

	exp, err := eng.Explain(context.Background(), x, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp.Distance-1.6) > 1e-9 {
		t.Fatalf("distance %g, want 1.6", exp.Distance)
	}
	if len(exp.Components) != 2 {
		t.Fatalf("components: %+v, want 2 non-zero-cost movements", exp.Components)
	}
	// Dominant movement: 0.3 mass from bin 4 to bin 0, cost 1.2.
	c0 := exp.Components[0]
	if c0.From != 4 || c0.To != 0 || math.Abs(c0.Cost-1.2) > 1e-9 {
		t.Fatalf("dominant component %+v", c0)
	}
	c1 := exp.Components[1]
	if c1.From != 2 || c1.To != 0 || math.Abs(c1.Cost-0.4) > 1e-9 {
		t.Fatalf("second component %+v", c1)
	}
	// Components must sum to the distance.
	var sum float64
	for _, c := range exp.Components {
		sum += c.Cost
	}
	if math.Abs(sum-exp.Distance) > 1e-9 {
		t.Fatalf("components sum to %g, distance %g", sum, exp.Distance)
	}

	// topK truncation.
	exp, err = eng.Explain(context.Background(), x, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Components) != 1 || exp.Components[0].Cost < 1.1 {
		t.Fatalf("topK=1 kept %+v", exp.Components)
	}
}

func TestExplainIdenticalHasNoComponents(t *testing.T) {
	eng, _ := NewEngine(LinearCost(4), Options{})
	h := Histogram{0.25, 0.25, 0.25, 0.25}
	eng.Add("", h)
	exp, err := eng.Explain(context.Background(), h, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Distance > 1e-12 || len(exp.Components) != 0 {
		t.Fatalf("identical explain: %+v", exp)
	}
}

func TestExplainValidation(t *testing.T) {
	eng, _ := NewEngine(LinearCost(4), Options{})
	eng.Add("", Histogram{1, 0, 0, 0})
	if _, err := eng.Explain(context.Background(), Histogram{1, 0, 0, 0}, 5, 0); err == nil {
		t.Error("accepted out-of-range item")
	}
	if _, err := eng.Explain(context.Background(), Histogram{1, 0}, 0, 0); err == nil {
		t.Error("accepted wrong-dimensional query")
	}
	if _, err := eng.Explain(context.Background(), Histogram{1, 0, 0, 0}, 0, -1); err == nil {
		t.Error("accepted negative topK")
	}
}
