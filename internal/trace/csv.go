package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteCSV writes the set as CSV with a "t" column followed by one column
// per series in set order. Series are aligned on the union of their
// timestamps using zero-order hold; values before a series' first sample
// are written as empty cells.
func (st Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"t"}
	for i := range st {
		header = append(header, st[i].Name)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	// Union of timestamps.
	seen := make(map[float64]bool)
	var times []float64
	for i := range st {
		for _, t := range st[i].T {
			if !seen[t] {
				seen[t] = true
				times = append(times, t)
			}
		}
	}
	sort.Float64s(times)
	row := make([]string, len(header))
	for _, t := range times {
		row[0] = formatFloat(t)
		for i := range st {
			if v, ok := st[i].ValueAt(t); ok {
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
