// Command metricsdoc keeps the README's metrics reference honest in
// both directions: it inventories every metric family the stack
// registers at init and fails when one is missing from the
// documentation, or when the reference table lists a family that is no
// longer registered. A new instrument cannot merge undocumented, and a
// deleted one cannot leave a stale row behind.
//
// Usage:
//
//	metricsdoc                 # check README.md, exit 1 on drift
//	metricsdoc -readme DOC.md  # check a different file
//	metricsdoc -list           # print the markdown table rows
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"legalchain/internal/metrics"

	// Blank imports pull in every package that registers instruments at
	// init, so metrics.Default holds the full inventory. Keep in sync
	// with the packages `grep -rl metrics.Default internal/` reports.
	_ "legalchain/internal/blockdb"
	_ "legalchain/internal/chain"
	_ "legalchain/internal/docstore"
	_ "legalchain/internal/evm"
	_ "legalchain/internal/obs"
	_ "legalchain/internal/rpc"
	_ "legalchain/internal/statestore"
	_ "legalchain/internal/watch"
	_ "legalchain/internal/xtrace"
)

// tableHeading introduces the metrics reference table; its rows run to
// the next heading.
const tableHeading = "### Metrics reference"

// tableRow matches a reference-table row and captures its metric name.
var tableRow = regexp.MustCompile("^\\| `([a-z_][a-z0-9_]*)` \\|")

// tableNames returns the metric names listed as rows of the reference
// table in doc, and whether the table's heading was found at all.
func tableNames(doc string) ([]string, bool) {
	var names []string
	in, found := false, false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "#") {
			in = strings.TrimSpace(line) == tableHeading
			found = found || in
			continue
		}
		if m := tableRow.FindStringSubmatch(line); in && m != nil {
			names = append(names, m[1])
		}
	}
	return names, found
}

func main() {
	readme := flag.String("readme", "README.md", "documentation file the metric names must appear in")
	list := flag.Bool("list", false, "print the inventory as markdown table rows instead of checking")
	flag.Parse()

	fams := metrics.Default.Families()
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })

	if *list {
		fmt.Println("| Metric | Type | Description |")
		fmt.Println("|---|---|---|")
		for _, f := range fams {
			fmt.Printf("| `%s` | %s | %s |\n", f.Name, f.Type, strings.ReplaceAll(f.Help, "|", "\\|"))
		}
		return
	}

	doc, err := os.ReadFile(*readme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricsdoc: %v\n", err)
		os.Exit(2)
	}
	text := string(doc)
	var missing []string
	for _, f := range fams {
		if !strings.Contains(text, f.Name) {
			missing = append(missing, f.Name)
		}
	}
	rows, found := tableNames(text)
	if !found {
		fmt.Fprintf(os.Stderr, "metricsdoc: no %q section in %s\n", tableHeading, *readme)
		os.Exit(2)
	}
	registered := make(map[string]bool, len(fams))
	for _, f := range fams {
		registered[f.Name] = true
	}
	var stale []string
	for _, name := range rows {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "metricsdoc: %d registered metric(s) missing from %s:\n", len(missing), *readme)
		for _, name := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		fmt.Fprintln(os.Stderr, "add them to the metrics reference table (regenerate rows with `go run ./cmd/metricsdoc -list`)")
	}
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "metricsdoc: %d metric(s) in the %s table are not registered:\n", len(stale), *readme)
		for _, name := range stale {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		fmt.Fprintln(os.Stderr, "delete their rows (regenerate rows with `go run ./cmd/metricsdoc -list`)")
	}
	if len(missing) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
	fmt.Printf("metricsdoc: all %d registered metrics documented in %s, no stale rows\n", len(fams), *readme)
}
