package timeseries

import (
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	// f(x) = (x0-3)^2 + (x1+2)^2 has its minimum at (3, -2).
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+2)*(x[1]+2)
	}
	got, val, err := NelderMead(f, []float64{0, 0}, NelderMeadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-3) > 1e-4 || math.Abs(got[1]+2) > 1e-4 {
		t.Errorf("minimum at %v, want (3, -2)", got)
	}
	if val > 1e-6 {
		t.Errorf("objective = %v, want about 0", val)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	// The banana function: minimum at (1, 1), famously hard for simplex
	// methods started far away.
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	got, val, err := NelderMead(f, []float64{-1.2, 1}, NelderMeadConfig{MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if val > 1e-4 {
		t.Errorf("Rosenbrock objective = %v at %v, want near 0", val, got)
	}
}

func TestNelderMeadOneDimension(t *testing.T) {
	f := func(x []float64) float64 { return math.Abs(x[0] - 7) }
	got, _, err := NelderMead(f, []float64{0}, NelderMeadConfig{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-7) > 1e-3 {
		t.Errorf("minimum at %v, want 7", got[0])
	}
}

func TestNelderMeadInfeasibleRegion(t *testing.T) {
	// Objective is +Inf left of x=5, quadratic right of it: the optimizer
	// must escape the infeasible start and converge near the boundary
	// minimum at x=5.
	f := func(x []float64) float64 {
		if x[0] < 5 {
			return math.Inf(1)
		}
		return (x[0] - 5) * (x[0] - 5)
	}
	got, val, err := NelderMead(f, []float64{6}, NelderMeadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if val > 1e-6 || got[0] < 5 {
		t.Errorf("minimum %v at %v, want 0 at >= 5", val, got)
	}
}

func TestNelderMeadAllInfeasible(t *testing.T) {
	f := func(x []float64) float64 { return math.Inf(1) }
	if _, _, err := NelderMead(f, []float64{0}, NelderMeadConfig{MaxIter: 50}); err == nil {
		t.Error("fully infeasible objective succeeded, want error")
	}
}

func TestNelderMeadEmptyDimension(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	if _, _, err := NelderMead(f, nil, NelderMeadConfig{}); err == nil {
		t.Error("zero-dimensional optimization succeeded, want error")
	}
}

// TestNelderMeadStopsAtAnyMagnitude holds the stopping test to the
// objective's magnitude: shifting the objective by 1e8, or scaling its
// residuals by 1e6 (values near 1e14, where the sum's rounding moves the
// low bits from one vertex to the next and an absolute spread of Tol never
// holds), must cost about the objective calls of the plain one.
func TestNelderMeadStopsAtAnyMagnitude(t *testing.T) {
	ys := make([]float64, 500)
	for i := range ys {
		ys[i] = 3 + 0.5*float64(i%17) + math.Sin(float64(i))
	}
	run := func(shift, scale float64) (calls int, x []float64) {
		f := func(p []float64) float64 {
			calls++
			s := shift
			for i, y := range ys {
				r := scale * (y - p[0] - p[1]*float64(i%17))
				s += r * r
			}
			return s
		}
		x, _, err := NelderMead(f, []float64{0, 0}, NelderMeadConfig{MaxIter: 4000, Tol: 1e-12, Step: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		return calls, x
	}
	plain, px := run(0, 1)
	for _, c := range []struct {
		name         string
		shift, scale float64
	}{{"shifted by 1e8", 1e8, 1}, {"scaled by 1e12", 0, 1e6}} {
		calls, x := run(c.shift, c.scale)
		if calls > 3*plain/2 {
			t.Errorf("%s: %d objective calls, the plain objective %d", c.name, calls, plain)
		}
		if math.Abs(x[0]-px[0]) > 1e-3 || math.Abs(x[1]-px[1]) > 1e-3 {
			t.Errorf("%s: minimum at %v, the plain objective's at %v", c.name, x, px)
		}
	}
}
