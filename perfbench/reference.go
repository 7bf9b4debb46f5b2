package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// refTable is one table of a recorded study output: its column names and
// its rows keyed by the first cell.
type refTable struct {
	Header []string
	Rows   map[string][]string
}

// cell returns the printed value at row key and column name.
func (t *refTable) cell(key, col string) (string, error) {
	row, ok := t.Rows[key]
	if !ok {
		return "", fmt.Errorf("no row %q", key)
	}
	for i, h := range t.Header {
		if h == col {
			if i >= len(row) {
				return "", fmt.Errorf("row %q has no column %q", key, col)
			}
			return row[i], nil
		}
	}
	return "", fmt.Errorf("no column %q", col)
}

// verdict is one recorded Sect. 3 noninterference result.
type verdict struct {
	States      int
	Transparent bool
	Formula     string
}

// reference is the parsed content of the recorded study outputs.
type reference struct {
	// Tables are keyed by the section title up to its first colon, e.g.
	// "Fig. 4" or "Fig. 3 (left)".
	Tables map[string]*refTable
	// Verdicts are keyed by model name: "simplified rpc", "revised rpc",
	// "streaming".
	Verdicts map[string]*verdict
}

var verdictLine = regexp.MustCompile(`^(.+) \((\d+) states\): transparent=(true|false)$`)

// parseReference reads a study output: "== title ==" sections holding
// either aligned tables (header, dashed rule, rows up to a blank line) or
// noninterference verdict lines with an optional distinguishing formula.
func parseReference(r io.Reader, ref *reference) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, strings.TrimRight(sc.Text(), " "))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	title := ""
	var last *verdict
	for i := 0; i < len(lines); i++ {
		ln := lines[i]
		switch {
		case strings.HasPrefix(ln, "== ") && strings.HasSuffix(ln, " =="):
			title = strings.TrimSuffix(strings.TrimPrefix(ln, "== "), " ==")
			if c := strings.Index(title, ":"); c >= 0 {
				title = title[:c]
			}
			last = nil
		case verdictLine.MatchString(ln):
			m := verdictLine.FindStringSubmatch(ln)
			n, _ := strconv.Atoi(m[2])
			last = &verdict{States: n, Transparent: m[3] == "true"}
			ref.Verdicts[m[1]] = last
		case ln == "distinguishing formula:" && last != nil && i+1 < len(lines):
			i++
			last.Formula = strings.TrimSpace(lines[i])
		case i+1 < len(lines) && isRule(lines[i+1]) && title != "":
			t := &refTable{Header: strings.Fields(ln), Rows: map[string][]string{}}
			i += 2
			for ; i < len(lines) && strings.TrimSpace(lines[i]) != ""; i++ {
				row := strings.Fields(lines[i])
				if len(row) != len(t.Header) {
					return fmt.Errorf("%s: row %q has %d cells, header has %d", title, lines[i], len(row), len(t.Header))
				}
				t.Rows[row[0]] = row
			}
			ref.Tables[title] = t
		}
	}
	return nil
}

// isRule reports whether ln is a table's dashed rule.
func isRule(ln string) bool {
	ln = strings.TrimSpace(ln)
	return ln != "" && strings.Trim(ln, "- ") == "" && strings.HasPrefix(ln, "-")
}

// loadReference parses the recorded full-scale study outputs.
func loadReference(paths ...string) (*reference, error) {
	ref := &reference{Tables: map[string]*refTable{}, Verdicts: map[string]*verdict{}}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		err = parseReference(f, ref)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", p, err)
		}
	}
	return ref, nil
}

// printed renders a value the way the studies print it: six significant
// digits.
func printed(v float64) string { return fmt.Sprintf("%.6g", v) }

// checkRow compares computed values against a recorded row, column by
// column, at the printed precision.
func (ref *reference) checkRow(table, key string, values map[string]float64) error {
	t, ok := ref.Tables[table]
	if !ok {
		return fmt.Errorf("reference has no table %q", table)
	}
	for col, v := range values {
		want, err := t.cell(key, col)
		if err != nil {
			return fmt.Errorf("%s: %w", table, err)
		}
		if got := printed(v); got != want {
			return fmt.Errorf("%s row %s column %s: got %s, recorded %s", table, key, col, got, want)
		}
	}
	return nil
}
