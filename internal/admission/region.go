package admission

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hap/internal/gm1"
)

// This file implements the Section 7 direction: "If we store this
// admissible call region in an admission decision table of each ATM
// network interface, the admission decision for an incoming VC or VP
// request can be made by a table lookup", with the linear-approximation
// technique the paper cites from Hui.

// CallClass describes one connection-oriented application type competing
// for the link: each admitted call contributes an independent message
// stream of MsgRate with the class's effective bandwidth weight.
type CallClass struct {
	Name    string
	MsgRate float64 // messages per second per admitted call
}

// Region is the admissible call region for a link of service rate Mu and a
// mean-delay target: the set of admission vectors n with delay(n) <= target.
type Region struct {
	Classes []CallClass
	Mu      float64
	Target  float64
	// MaxCalls[i] is the per-class maximum with no other traffic.
	MaxCalls []int
}

// NewRegion computes the per-class extreme points of the admissible region
// under the M/M/1 delay model (admitted calls superpose to a Poisson
// stream at the message level when each call's stream is Poisson, which is
// the CO-service view of Section 7).
func NewRegion(classes []CallClass, mu, targetDelay float64) (*Region, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("admission: no classes")
	}
	if mu <= 0 || targetDelay <= 0 {
		return nil, fmt.Errorf("admission: mu and target must be positive")
	}
	if targetDelay < 1/mu {
		return nil, ErrInfeasible // even an empty link misses the target
	}
	r := &Region{Classes: classes, Mu: mu, Target: targetDelay}
	// Delay 1/(μ − λ) <= T  ⇔  λ <= μ − 1/T.
	lambdaMax := mu - 1/targetDelay
	for _, c := range classes {
		if c.MsgRate <= 0 {
			return nil, fmt.Errorf("admission: class %q rate must be positive", c.Name)
		}
		r.MaxCalls = append(r.MaxCalls, int(lambdaMax/c.MsgRate))
	}
	return r, nil
}

// LambdaMax returns the admissible aggregate message rate μ − 1/T.
func (r *Region) LambdaMax() float64 { return r.Mu - 1/r.Target }

// Admissible reports whether the call vector n (one count per class) meets
// the delay target exactly (not via the linear approximation).
func (r *Region) Admissible(n []int) bool {
	if len(n) != len(r.Classes) {
		panic("admission: call vector arity mismatch")
	}
	var lam float64
	for i, k := range n {
		if k < 0 {
			return false
		}
		lam += float64(k) * r.Classes[i].MsgRate
	}
	if lam >= r.Mu {
		return false
	}
	res, err := gm1.MM1(lam, r.Mu)
	if err != nil {
		return false
	}
	return res.Delay <= r.Target
}

// AdmissibleLinear is the paper's table-friendly linear approximation:
// Σ nᵢ·rᵢ <= λmax. For the M/M/1 delay constraint the boundary is exactly
// linear, so this agrees with Admissible; it is retained separately
// because the lookup-table deployment stores only the weights.
func (r *Region) AdmissibleLinear(n []int) bool {
	var lam float64
	for i, k := range n {
		if k < 0 {
			return false
		}
		lam += float64(k) * r.Classes[i].MsgRate
	}
	return lam <= r.LambdaMax()
}

// Table is a precomputed admission decision table over two classes, the
// deployable artefact Section 7 sketches for ATM interfaces.
type Table struct {
	Region *Region
	// limit[k] is the largest admissible count of class 1 given k calls of
	// class 0.
	limit []int
}

// BuildTable precomputes the two-class decision table.
func (r *Region) BuildTable() (*Table, error) {
	if len(r.Classes) != 2 {
		return nil, fmt.Errorf("admission: decision table wants exactly 2 classes, got %d", len(r.Classes))
	}
	t := &Table{Region: r}
	for k := 0; ; k++ {
		if !r.Admissible([]int{k, 0}) {
			break
		}
		// Binary search the class-1 boundary at this class-0 count.
		hi := sort.Search(r.MaxCalls[1]+2, func(j int) bool {
			return !r.Admissible([]int{k, j})
		})
		t.limit = append(t.limit, hi-1)
	}
	return t, nil
}

// Lookup decides an admission request with n0 existing + requested calls
// of class 0 and n1 of class 1 in O(1).
func (t *Table) Lookup(n0, n1 int) bool {
	if n0 < 0 || n1 < 0 {
		return false
	}
	if n0 >= len(t.limit) {
		return false
	}
	return n1 <= t.limit[n0]
}

// String renders the staircase boundary.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "admissible region (%s x %s), λmax=%.4g:\n",
		t.Region.Classes[0].Name, t.Region.Classes[1].Name, t.Region.LambdaMax())
	for k, lim := range t.limit {
		fmt.Fprintf(&b, "  n0=%3d → n1 ≤ %d\n", k, lim)
	}
	return b.String()
}

// HAPHeadroom compares the Poisson-based λmax with a HAP-corrected one: at
// the same target delay a HAP stream is admitted only up to the rate where
// the G/M/1 delay meets the target, searched by MaxScale up to the
// stability limit μ/rateAt(1). The returned factor (<= 1) is the
// admission-capacity penalty for hierarchical burstiness — the
// quantitative form of Section 6's warning against engineering with
// Poisson models.
func HAPHeadroom(laplaceAt func(scale float64) func(float64) float64, rateAt func(scale float64) float64, mu, target float64) (float64, error) {
	lamMaxPoisson := mu - 1/target
	if lamMaxPoisson <= 0 {
		return 0, ErrInfeasible
	}
	scale, _, err := MaxScale(func(f float64) gm1.Laplace { return laplaceAt(f) }, rateAt,
		mu, target, mu/rateAt(1))
	if err != nil {
		return 0, err
	}
	return math.Min(1, rateAt(scale)/lamMaxPoisson), nil
}
