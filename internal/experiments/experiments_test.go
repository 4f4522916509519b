package experiments

import (
	"io"
	"os"
	"strings"
	"testing"

	"hap/internal/trace"
)

// runExp executes one experiment at the test scale with a fixed seed.
func runExp(t *testing.T, id string, scale float64) *Result {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	res, err := e.Run(&Context{Scale: scale, Out: io.Discard, Seed: 42})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return res
}

func value(t *testing.T, res *Result, key string) float64 {
	t.Helper()
	v, ok := res.Values[key]
	if !ok {
		t.Fatalf("%s missing value %q", res.ID, key)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registered %d experiments, want 18 (E1..E18)", len(all))
	}
	prev := 0
	for _, e := range all {
		n := idOrder(e.ID)
		if n <= prev {
			t.Errorf("registry not in ID order at %s", e.ID)
		}
		prev = n
	}
	if _, ok := Get("e4"); !ok {
		t.Error("Get must be case-insensitive")
	}
	if _, ok := Get("E99"); ok {
		t.Error("unknown ID resolved")
	}
}

func TestE1Headline(t *testing.T) {
	res := runExp(t, "E1", 0.05)
	if v := value(t, res, "meanRate"); v < 8.24 || v > 8.26 {
		t.Errorf("mean rate %v", v)
	}
	exact := value(t, res, "delayExact")
	sol2 := value(t, res, "delaySol2")
	mm1 := value(t, res, "delayMM1")
	// At the 0.05-scale truncation (8,48) the exact solver loses ~10% of
	// λ̄ to the bound, so only the HAP-above-Poisson ordering is asserted
	// here; exact > sol2 is covered at real bounds by the solver tests.
	if !(exact > mm1 && sol2 > mm1) {
		t.Errorf("delay ordering violated: exact=%v sol2=%v mm1=%v", exact, sol2, mm1)
	}
	if sig := value(t, res, "sigma2"); sig < 0.4 || sig > 0.55 {
		t.Errorf("sigma %v", sig)
	}
}

func TestE2Crossings(t *testing.T) {
	res := runExp(t, "E2", 0.1)
	if v := value(t, res, "a0"); v < 9.2 || v > 9.4 {
		t.Errorf("a(0) = %v, want ≈ 9.3", v)
	}
	c1 := value(t, res, "crossing1")
	c2 := value(t, res, "crossing2")
	if c1 < 0.06 || c1 > 0.09 || c2 < 0.48 || c2 > 0.58 {
		t.Errorf("crossings %v, %v (paper: 0.077, 0.53)", c1, c2)
	}
}

func TestE3Tail(t *testing.T) {
	res := runExp(t, "E3", 0.1)
	if value(t, res, "tailAbove") != 1 {
		t.Error("HAP tail must dominate past the second crossing")
	}
}

func TestE4CapacitySweep(t *testing.T) {
	res := runExp(t, "E4", 0.05)
	low := value(t, res, "ratioLow")
	high := value(t, res, "ratioHigh")
	if !(low > high && high > 1) {
		t.Errorf("ratio shape broken: low-load %v, high-capacity %v", low, high)
	}
}

func TestE11LevelOrdering(t *testing.T) {
	res := runExp(t, "E11", 0.1)
	tU := value(t, res, "tUser")
	tA := value(t, res, "tApp")
	tM := value(t, res, "tMsg")
	if !(tM >= tA && tA > tU) {
		t.Errorf("ordering: user=%v app=%v msg=%v", tU, tA, tM)
	}
}

func TestE12BoundingGap(t *testing.T) {
	res := runExp(t, "E12", 0.1)
	if value(t, res, "gapLast") <= value(t, res, "gapFirst") {
		t.Error("bounding benefit should grow with load")
	}
	if value(t, res, "gapLast") <= 0 {
		t.Error("bounding must help")
	}
}

func TestE13ShapeOrdering(t *testing.T) {
	res := runExp(t, "E13", 0.05)
	if !(value(t, res, "scvC") > value(t, res, "scvA")) {
		t.Error("SCV ordering broken")
	}
	if !(value(t, res, "delayC") > value(t, res, "delayA")) {
		t.Error("delay ordering broken")
	}
}

func TestE14Accuracy(t *testing.T) {
	res := runExp(t, "E14", 0.05)
	if v := value(t, res, "errAtLow"); v > 0.06 {
		t.Errorf("low-load error %v too large", v)
	}
	if value(t, res, "errAtHigh") <= value(t, res, "errAtLow") {
		t.Error("error must grow with load")
	}
}

func TestE16Equivalence(t *testing.T) {
	res := runExp(t, "E16", 0.1)
	if v := value(t, res, "ccdfIdentity"); v > 1e-12 {
		t.Errorf("identity violated: %v", v)
	}
}

func TestE18Comparator(t *testing.T) {
	res := runExp(t, "E18", 0.05)
	hap := value(t, res, "hapDelay")
	m2 := value(t, res, "mmpp2Delay")
	pois := value(t, res, "poissonDelay")
	if !(pois < m2 && m2 < hap) {
		t.Errorf("ordering: poisson=%v mmpp2=%v hap=%v", pois, m2, hap)
	}
}

func TestResultsCSVWritten(t *testing.T) {
	dir := t.TempDir()
	e, _ := Get("E2")
	if _, err := e.Run(&Context{Scale: 0.1, Out: io.Discard, Seed: 1, ResultsDir: dir}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dir + "/fig09_interarrival.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cols, err := trace.ReadCSVFrom(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 || len(cols[0].Values) < 50 {
		t.Fatalf("csv malformed: %d cols", len(cols))
	}
}

func TestRenderAndRunAllLight(t *testing.T) {
	// Render a cheap experiment's table into a buffer.
	res := runExp(t, "E3", 0.1)
	var sb strings.Builder
	res.Render(&sb)
	for _, frag := range []string{"E3", "paper", "measured"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	_ = os.Stdout
}
