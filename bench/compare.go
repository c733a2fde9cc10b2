package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func loadDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadDocument(pathB)
	if err != nil {
		return false, err
	}
	return compareDocuments(w, a, b), nil
}

// compareDocuments prints, one workload per block and one end-to-end metric
// per row, both values, how much worse b is than a as a share of a (negative
// = better), and the metric's bound. It reports whether any row is worse than
// its bound, or a workload of a failed or is missing in b.
func compareDocuments(w io.Writer, a, b *document) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse by\tbound\t")
	for _, ea := range a.Workloads {
		var eb *workloadEntry
		for i := range b.Workloads {
			if b.Workloads[i].Name == ea.Name {
				eb = &b.Workloads[i]
			}
		}
		if eb == nil || ea.Run == nil || eb.Run == nil {
			fmt.Fprintf(tw, "%s\t(missing from one document)\t\t\t\t\t\tREGRESSED\n", ea.Name)
			regressed = true
			continue
		}
		if !eb.Run.Correct || eb.Run.Failed > ea.Run.Failed {
			fmt.Fprintf(tw, "%s\t(b failed a check, or more operations than a)\t\t\t\t\t\tREGRESSED\n", ea.Name)
			regressed = true
		}
		for _, m := range endToEnd {
			va, vb := ea.Run.EndToEnd[m.Name], eb.Run.EndToEnd[m.Name]
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%s\n",
				ea.Name, m.Name, m.Unit, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return regressed
}
