package coord

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestArbitrateRackActions: with a budget that covers every ask, every
// node of every Table II action class is fully served.
func TestArbitrateRackActions(t *testing.T) {
	dirs := []Direction{Down, Hold, Up}
	var nodes []RackProposal
	for _, capDir := range dirs {
		for _, fanDir := range dirs {
			nodes = append(nodes, RackProposal{CapDir: capDir, FanDir: fanDir, Floor: 10, Need: 20})
		}
	}
	allocs, err := ArbitrateRack(1e6, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range nodes {
		if allocs[i] != 20 { // unconstrained budget: everyone fully served
			t.Errorf("node %d (%v, %v): alloc %v, want 20", i, p.CapDir, p.FanDir, allocs[i])
		}
	}
}

// TestArbitrateRackPriority: with a budget that cannot serve everyone,
// surplus flows to fan-up emergencies first, then cap-up recovery, then
// savings — and within a class by urgency.
func TestArbitrateRackPriority(t *testing.T) {
	nodes := []RackProposal{
		{CapDir: Hold, FanDir: Down, Floor: 50, Need: 100, Urgency: 9}, // savings, loudest
		{CapDir: Up, FanDir: Hold, Floor: 50, Need: 100, Urgency: 1},   // cap-up
		{CapDir: Hold, FanDir: Up, Floor: 50, Need: 100, Urgency: 0},   // fan-up emergency
		{CapDir: Up, FanDir: Hold, Floor: 50, Need: 100, Urgency: 5},   // cap-up, more urgent
	}
	// Floors take 200; surplus 125 covers the emergency (50), the urgent
	// cap-up (50), and 25 of the second cap-up. The savings node gets
	// nothing beyond its floor despite the highest urgency.
	allocs, err := ArbitrateRack(325, nodes)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{50, 75, 100, 100}
	for i, alloc := range allocs {
		if alloc != want[i] {
			t.Errorf("node %d alloc %v, want %v", i, alloc, want[i])
		}
	}
}

// TestArbitrateRackInfeasibleBudget: a budget below the summed floors is
// an error, never a silent violation of a node's local constraint.
func TestArbitrateRackInfeasibleBudget(t *testing.T) {
	nodes := []RackProposal{{Floor: 60, Need: 80}, {Floor: 60, Need: 80}}
	if _, err := ArbitrateRack(100, nodes); err == nil {
		t.Fatal("infeasible budget accepted")
	}
	for _, bad := range []RackProposal{
		{Floor: -1, Need: 10},
		{Floor: math.NaN(), Need: 10},
		{Floor: 1, Need: math.Inf(1)},
		{Floor: 1, Need: 2, Urgency: math.NaN()},
	} {
		if _, err := ArbitrateRack(100, []RackProposal{bad}); err == nil {
			t.Errorf("degenerate proposal %+v accepted", bad)
		}
	}
	if _, err := ArbitrateRack(math.Inf(1), nil); err == nil {
		t.Error("non-finite budget accepted")
	}
}

// TestArbitrateRackInvariants is the coordinator budget property test:
// for random racks of any size and seed, the arbitrated allocations never
// exceed the global budget, never fall below a node's local floor, never
// exceed its ask, and a lower-priority node receives surplus only when
// every higher-priority node is fully served. The arbitration is also a
// pure function of its inputs.
func TestArbitrateRackInvariants(t *testing.T) {
	dirs := []Direction{Down, Hold, Up}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(48)
		nodes := make([]RackProposal, n)
		sumFloor, sumAsk := 0.0, 0.0
		for i := range nodes {
			floor := rng.Float64() * 100
			need := rng.Float64() * 250 // sometimes below floor: a no-op ask
			nodes[i] = RackProposal{
				CapDir:  dirs[rng.Intn(3)],
				FanDir:  dirs[rng.Intn(3)],
				Floor:   floor,
				Need:    need,
				Urgency: rng.Float64() * 10,
			}
			sumFloor += floor
			if need > floor {
				sumAsk += need - floor
			}
		}
		budget := sumFloor + rng.Float64()*sumAsk*1.2
		allocs, err := ArbitrateRack(budget, nodes)
		if err != nil {
			t.Fatal(err)
		}

		total := 0.0
		for i, alloc := range allocs {
			total += alloc
			if alloc < nodes[i].Floor {
				t.Fatalf("seed %d node %d: alloc %v below floor %v (local constraint violated)",
					seed, i, alloc, nodes[i].Floor)
			}
			if max := math.Max(nodes[i].Floor, nodes[i].Need); alloc > max+1e-9 {
				t.Fatalf("seed %d node %d: alloc %v above ask %v", seed, i, alloc, max)
			}
		}
		if total > budget+1e-6 {
			t.Fatalf("seed %d: total alloc %v exceeds budget %v", seed, total, budget)
		}

		// Priority: if node b received surplus, every node ordered before
		// it (lower rank, or same rank and higher urgency / lower index)
		// must be fully served.
		for b := range allocs {
			if allocs[b] <= nodes[b].Floor {
				continue
			}
			for a := range allocs {
				if a == b {
					continue
				}
				ra, rb := rackRank(nodes[a]), rackRank(nodes[b])
				before := ra < rb ||
					(ra == rb && nodes[a].Urgency > nodes[b].Urgency) ||
					(ra == rb && nodes[a].Urgency == nodes[b].Urgency && a < b)
				full := math.Max(nodes[a].Floor, nodes[a].Need)
				if before && allocs[a] < full-1e-9 {
					t.Fatalf("seed %d: node %d got surplus while higher-priority node %d starved (%v < %v)",
						seed, b, a, allocs[a], full)
				}
			}
		}

		again, err := ArbitrateRack(budget, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, allocs) {
			t.Fatalf("seed %d: arbitration is not deterministic", seed)
		}
	}
}
