package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteCSV writes the set as CSV with a "t" column followed by one column
// per series in insertion order. Series are aligned on the union of their
// timestamps using zero-order hold; values before a series' first sample
// are written as empty cells.
func (st *Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"t"}, st.order...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	// Union of timestamps.
	seen := make(map[float64]bool)
	var times []float64
	for _, name := range st.order {
		for _, p := range st.byKey[name].points {
			if !seen[p.T] {
				seen[p.T] = true
				times = append(times, p.T)
			}
		}
	}
	sort.Float64s(times)
	row := make([]string, len(header))
	for _, t := range times {
		row[0] = formatFloat(t)
		for i, name := range st.order {
			if v, ok := st.byKey[name].ValueAt(t); ok {
				row[i+1] = formatFloat(v)
			} else {
				row[i+1] = ""
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
