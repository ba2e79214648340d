package cluster

import (
	"testing"

	"progresscap/internal/rapl"
)

func sumCaps(caps []float64) float64 {
	var s float64
	for _, c := range caps {
		s += c
	}
	return s
}

// Four nodes with measured draws 150/90/120/60 W — the packing fixture.
func packFixture() []NodeStatus {
	return []NodeStatus{
		{Name: "a", PowerW: 150},
		{Name: "b", PowerW: 90},
		{Name: "c", PowerW: 120},
		{Name: "d", PowerW: 60},
	}
}

func TestBinPackSortedWattsConcentrates(t *testing.T) {
	nodes := packFixture()
	// Budget covers the floors (4×40) plus 200 W of packing headroom.
	caps := BinPackSortedWatts{}.Divide(360, nodes)
	if got := sumCaps(caps); got > 360+1e-9 {
		t.Fatalf("over-committed: Σ=%g", got)
	}
	// Hungriest first: a (150) and c (120) fill to demand, b gets the
	// last 10 W of headroom, d sits at the floor.
	want := []float64{150, 50, 120, 40}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("caps = %v, want %v", caps, want)
		}
	}
}

func TestBinPackSortedWattsSurplusSpreads(t *testing.T) {
	nodes := packFixture()
	// 600 W covers every demand (Σ=420) with 180 W spare: the surplus
	// water-fills equally, saturating a and c at the 165 W firmware cap
	// and leaving b and d level at 150/120.
	caps := BinPackSortedWatts{}.Divide(600, nodes)
	want := []float64{165, 150, 165, 120}
	for i := range want {
		if diff := caps[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("caps = %v, want %v", caps, want)
		}
	}
}

func TestBinPackSortedWattsTightBudgetEqualSplit(t *testing.T) {
	nodes := packFixture()
	// Below the total floor the packing degrades to an equal split — the
	// safety reserve is never bin-packed away.
	caps := BinPackSortedWatts{}.Divide(100, nodes)
	for i := range caps {
		if caps[i] != 25 {
			t.Fatalf("caps = %v, want equal 25s", caps)
		}
	}
}

func TestBinPackRespectsNodeCap(t *testing.T) {
	nodes := []NodeStatus{{Name: "a", PowerW: 500}, {Name: "b", PowerW: 50}}
	caps := BinPackSortedWatts{}.Divide(400, nodes)
	if caps[0] > rapl.FirmwareDefaultCapW {
		t.Fatalf("a = %g exceeds the firmware TDP %d", caps[0], rapl.FirmwareDefaultCapW)
	}
}

func TestMaxGreedyMinsShape(t *testing.T) {
	nodes := packFixture()
	// 360 W: floors (160) + 200 headroom. Max-first fills a (150); then
	// mins-first fills d (60) and b (90) from the cheap end.
	caps := MaxGreedyMins{}.Divide(360, nodes)
	if got := sumCaps(caps); got > 360+1e-9 {
		t.Fatalf("over-committed: Σ=%g", got)
	}
	if caps[0] != 150 {
		t.Fatalf("max node a = %g, want 150", caps[0])
	}
	if caps[3] != 60 {
		t.Fatalf("min node d = %g, want filled to demand 60", caps[3])
	}
	if caps[1] != 90 {
		t.Fatalf("next-min node b = %g, want filled to demand 90", caps[1])
	}
	// c gets what's left: 200 - 110 - 20 - 50 = 20 above its floor.
	if caps[2] != 60 {
		t.Fatalf("c = %g, want 60", caps[2])
	}
}

func TestPackersSkipFailedAndDone(t *testing.T) {
	nodes := []NodeStatus{
		{Name: "a", PowerW: 100},
		{Name: "b", PowerW: 100, Failed: true},
		{Name: "c", PowerW: 100, Done: true},
	}
	for _, p := range []Policy{BinPackSortedWatts{}, MaxGreedyMins{}} {
		caps := p.Divide(300, nodes)
		if caps[1] != 0 || caps[2] != 0 {
			t.Fatalf("%s allocated to a failed/done node: %v", p.Name(), caps)
		}
		if caps[0] == 0 {
			t.Fatalf("%s starved the healthy node: %v", p.Name(), caps)
		}
	}
	for _, p := range []Policy{BinPackSortedWatts{}, MaxGreedyMins{}} {
		caps := p.Divide(300, []NodeStatus{{Done: true}})
		if caps[0] != 0 {
			t.Fatalf("%s allocated to an all-done job", p.Name())
		}
	}
}

func TestPackersDeterministicOnTies(t *testing.T) {
	nodes := []NodeStatus{
		{Name: "a", PowerW: 100}, {Name: "b", PowerW: 100},
		{Name: "c", PowerW: 100}, {Name: "d", PowerW: 100},
	}
	for _, p := range []Policy{BinPackSortedWatts{}, MaxGreedyMins{}} {
		first := p.Divide(250, nodes)
		for rep := 0; rep < 10; rep++ {
			again := p.Divide(250, nodes)
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("%s tie-break unstable: %v vs %v", p.Name(), first, again)
				}
			}
		}
	}
}
