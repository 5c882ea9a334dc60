package bench

import (
	"encoding/json"
	"fmt"
	"strings"
)

// FormatSeries renders measurement series as an aligned text table with one
// row per x-value and one column per series — the shape of the paper's
// figure data.
func FormatSeries(title, xLabel string, series []Series) string {
	return formatTable(title, xLabel, series, func(p Point) string { return fmt.Sprintf("%.4fs", p.SecondsPer1M) })
}

// FormatCosts renders Figure 6's other columns in FormatSeries' shape: the
// share of decisions that admitted, and the heap bytes per principal in
// the store and per policy.
func FormatCosts(title, xLabel string, series []Series) string {
	return formatTable(title, xLabel, series, func(p Point) string {
		return fmt.Sprintf("%.0f%% %.0fB %.0fB", 100*float64(p.Admitted)/float64(p.QueriesTimed), p.BytesPerPrincipal, p.BytesPerPolicy)
	})
}

// formatTable renders one cell per point, one row per x-value.
func formatTable(title, xLabel string, series []Series, cell func(Point) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(series) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	// Header.
	fmt.Fprintf(&b, "%-28s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " | %22s", s.Name)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 28+len(series)*25) + "\n")
	// Collect x values from the first series (all series share them).
	for i, p := range series[0].Points {
		fmt.Fprintf(&b, "%-28d", p.X)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " | %21s", cell(s.Points[i]))
			} else {
				fmt.Fprintf(&b, " | %22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTSV renders series as tab-separated values for plotting.
func FormatTSV(series []Series) string {
	var b strings.Builder
	b.WriteString("series\tx\tseconds_per_1M\tqueries\telapsed_seconds\tadmitted\tbytes_per_principal\tbytes_per_policy\n")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s\t%d\t%.6f\t%d\t%.6f\t%d\t%.0f\t%.0f\n", s.Name, p.X, p.SecondsPer1M, p.QueriesTimed, p.ElapsedSecond,
				p.Admitted, p.BytesPerPrincipal, p.BytesPerPolicy)
		}
	}
	return b.String()
}

// FormatJSON renders series as indented JSON, for archiving benchmark runs
// (BENCH_*.json) and machine comparison across commits.
func FormatJSON(experiment string, series []Series) (string, error) {
	doc := struct {
		Experiment string   `json:"experiment"`
		Series     []Series `json:"series"`
	}{Experiment: experiment, Series: series}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// Speedup returns the ratio of the two series' SecondsPer1M at each shared
// x-value — the slow/fast factors disclosurebench prints under its tables.
func Speedup(slow, fast Series) []float64 {
	n := len(slow.Points)
	if len(fast.Points) < n {
		n = len(fast.Points)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if fast.Points[i].SecondsPer1M > 0 {
			out[i] = slow.Points[i].SecondsPer1M / fast.Points[i].SecondsPer1M
		}
	}
	return out
}
