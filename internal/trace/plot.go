package trace

import (
	"fmt"
	"math"
	"strings"
)

// PlotOptions configures terminal rendering of a series set.
type PlotOptions struct {
	Height int    // plot rows (default 16)
	Title  string // optional title line
}

// plotWidth is the plot's column count, excluding the axis gutter.
const plotWidth = 78

var plotMarks = []byte{'*', '+', 'o', 'x', '#', '@'}

// Plot renders the series of the set as an ASCII chart, one mark per
// series, with a legend. Series are resampled onto the plot's column grid
// with zero-order hold, and the y range is fitted to the data. It returns
// "" for a set with no samples.
func (st Set) Plot(opt PlotOptions) string {
	if opt.Height <= 0 {
		opt.Height = 16
	}
	// Global time extent and y extent.
	t0, t1 := math.Inf(1), math.Inf(-1)
	lo, hi := math.Inf(1), math.Inf(-1)
	any := false
	for i := range st {
		s := &st[i]
		if len(s.T) == 0 {
			continue
		}
		any = true
		t0 = math.Min(t0, s.T[0])
		t1 = math.Max(t1, s.T[len(s.T)-1])
		for _, v := range s.V {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if !any {
		return ""
	}
	if hi == lo {
		hi = lo + 1
	}
	if t1 == t0 {
		t1 = t0 + 1
	}

	grid := make([][]byte, opt.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", plotWidth))
	}
	for si := range st {
		s := &st[si]
		if len(s.T) == 0 {
			continue
		}
		mark := plotMarks[si%len(plotMarks)]
		for c := 0; c < plotWidth; c++ {
			t := t0 + (t1-t0)*float64(c)/float64(plotWidth-1)
			v, ok := s.ValueAt(t)
			if !ok {
				continue
			}
			frac := (v - lo) / (hi - lo)
			r := int(math.Round(float64(opt.Height-1) * (1 - frac)))
			grid[r][c] = mark
		}
	}

	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	for r := 0; r < opt.Height; r++ {
		y := hi - (hi-lo)*float64(r)/float64(opt.Height-1)
		fmt.Fprintf(&b, "%10.2f |%s\n", y, string(grid[r]))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", plotWidth))
	fmt.Fprintf(&b, "%10s  t=%.0fs%st=%.0fs\n", "", t0,
		strings.Repeat(" ", maxInt(1, plotWidth-len(fmt.Sprintf("t=%.0fs", t0))-len(fmt.Sprintf("t=%.0fs", t1)))), t1)
	for si := range st {
		if len(st[si].T) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%10s  %c %s\n", "", plotMarks[si%len(plotMarks)], st[si].Name)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
