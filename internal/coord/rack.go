package coord

import (
	"fmt"
	"math"
	"sort"
)

// This file extends the Table II selector from one server to a rack: the
// per-node action class still comes from Rule — the single-server matrix
// is the primitive, not duplicated logic — and a rack-level arbitration
// orders the nodes' power asks against a shared budget with the same
// performance bias the table encodes (fan-up responses first, then
// performance-restoring cap releases, savings last).

// RackProposal is one node's local (cap, fan) intent submitted to the
// rack arbitration: the directions its private DTM proposes, the power
// allocation its local constraints require at minimum (Floor — the power
// at its cap floor, which the coordinator must never take away), the
// allocation it asks for (Need), and a priority used to order nodes
// within an action class.
type RackProposal struct {
	// CapDir and FanDir are the node's local proposal directions, exactly
	// the inputs the single-server Rule takes.
	CapDir Direction
	FanDir Direction
	// Floor is the node's minimum power allocation in watts: the draw at
	// its local cap floor. Arbitration always grants at least Floor — the
	// local thermal/performance constraint outranks the global budget.
	Floor float64
	// Need is the node's requested allocation in watts. A Need below
	// Floor asks for nothing beyond the floor.
	Need float64
	// Urgency orders nodes within one action class (higher first); ties
	// break on node index, so the arbitration is deterministic.
	Urgency float64
}

// rackRank orders the Table II action classes for budget distribution,
// mirroring the matrix's performance bias: nodes whose fans are spinning
// up are thermal emergencies and must not be starved while the fan works
// (rank 0); cap raises restore performance (rank 1); everything else —
// holds and downs — is savings and waits (rank 2).
func rackRank(p RackProposal) int {
	switch {
	case Rule(p.CapDir, p.FanDir) == ApplyFan && p.FanDir == Up:
		return 0
	case Rule(p.CapDir, p.FanDir) == ApplyCap && p.CapDir == Up:
		return 1
	default:
		return 2
	}
}

// ArbitrateRack splits the rack power budget across the nodes and returns
// each node's granted power allocation in watts, with
// Floor <= alloc <= max(Floor, Need). Every node is granted its Floor
// first (local constraints always win); the surplus budget is then handed
// out in the rank order of the nodes' Table II action classes — fan-up
// emergencies, cap-up performance recovery, savings — and by descending
// Urgency (index ascending on ties) within a rank, each node taking at
// most Need - Floor. The result is deterministic in the inputs.
//
// The budget must cover the floors: a budget below their sum is
// infeasible (some node would have to run past its local constraint) and
// is an error — callers clamp the budget up before arbitrating.
func ArbitrateRack(budget float64, nodes []RackProposal) ([]float64, error) {
	sumFloor := 0.0
	for i, p := range nodes {
		if p.Floor < 0 || math.IsNaN(p.Floor) || math.IsInf(p.Floor, 0) {
			return nil, fmt.Errorf("coord: node %d floor %v", i, p.Floor)
		}
		if math.IsNaN(p.Need) || math.IsInf(p.Need, 0) {
			return nil, fmt.Errorf("coord: node %d need %v", i, p.Need)
		}
		if math.IsNaN(p.Urgency) {
			return nil, fmt.Errorf("coord: node %d urgency NaN", i)
		}
		sumFloor += p.Floor
	}
	if math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("coord: bad budget %v", budget)
	}
	if budget < sumFloor {
		return nil, fmt.Errorf("coord: budget %.6g W below the %.6g W the node floors require", budget, sumFloor)
	}

	allocs := make([]float64, len(nodes))
	order := make([]int, len(nodes))
	for i, p := range nodes {
		allocs[i] = p.Floor
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		ra, rb := rackRank(nodes[ia]), rackRank(nodes[ib])
		if ra != rb {
			return ra < rb
		}
		if nodes[ia].Urgency != nodes[ib].Urgency {
			return nodes[ia].Urgency > nodes[ib].Urgency
		}
		return ia < ib
	})
	surplus := budget - sumFloor
	for _, i := range order {
		if surplus <= 0 {
			break
		}
		ask := nodes[i].Need - nodes[i].Floor
		if ask <= 0 {
			continue
		}
		take := ask
		if take > surplus {
			take = surplus
		}
		allocs[i] += take
		surplus -= take
	}
	return allocs, nil
}
