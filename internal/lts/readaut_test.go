package lts

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/rates"
	"repro/internal/statespace"
)

// ReadAUT parses an Aldebaran .aut description into an LTS. It is the
// reading side of WriteAUT, kept as the oracle of the round-trip and fuzz
// tests: the program only writes .aut files. Labels named "tau" or "i"
// map to the invisible action; rate decorations appended by
// WriteAUT are kept as part of the label text (functional reading). A
// header declaring more than DefaultMaxStates states is rejected before
// anything is allocated for them.
func ReadAUT(r io.Reader) (*LTS, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("lts: empty aut input")
	}
	header := strings.TrimSpace(sc.Text())
	var initial, numTrans, numStates int
	if _, err := fmt.Sscanf(header, "des (%d, %d, %d)", &initial, &numTrans, &numStates); err != nil {
		return nil, fmt.Errorf("lts: bad aut header %q: %w", header, err)
	}
	if numStates <= 0 || numTrans < 0 || initial < 0 || initial >= numStates {
		return nil, fmt.Errorf("lts: inconsistent aut header %q", header)
	}
	if numStates > DefaultMaxStates {
		return nil, fmt.Errorf("lts: aut header declares %d states, above the limit of %d", numStates, DefaultMaxStates)
	}
	syms := statespace.NewSymbols()
	var edges []edge
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		src, label, dst, err := parseAUTLine(line)
		if err != nil {
			return nil, fmt.Errorf("lts: aut line %d: %w", lineNo, err)
		}
		if src < 0 || src >= numStates || dst < 0 || dst >= numStates {
			return nil, fmt.Errorf("lts: aut line %d: state out of range", lineNo)
		}
		li := TauIndex
		if label != TauName && label != "i" {
			li = syms.Intern(label)
		}
		edges = append(edges, edge{src: src, dst: dst, label: li, rate: rates.UntimedRate()})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(edges) != numTrans {
		return nil, fmt.Errorf("lts: aut header declares %d transitions, found %d",
			numTrans, len(edges))
	}
	return build(syms, numStates, initial, edges), nil
}

// parseAUTLine parses one `(src, "label", dst)` or `(src, label, dst)`
// line. Labels may contain commas and escaped quotes when quoted, so a
// quoted label is scanned by its quote structure rather than by comma
// position.
func parseAUTLine(line string) (src int, label string, dst int, err error) {
	if !strings.HasPrefix(line, "(") || !strings.HasSuffix(line, ")") {
		return 0, "", 0, fmt.Errorf("malformed transition %q", line)
	}
	body := line[1 : len(line)-1]
	firstComma := strings.Index(body, ",")
	if firstComma < 0 {
		return 0, "", 0, fmt.Errorf("malformed transition %q", line)
	}
	src, err = strconv.Atoi(strings.TrimSpace(body[:firstComma]))
	if err != nil {
		return 0, "", 0, fmt.Errorf("bad source in %q", line)
	}
	rest := strings.TrimSpace(body[firstComma+1:])
	if strings.HasPrefix(rest, `"`) {
		// Quoted label: find its closing quote, honouring backslash
		// escapes, so embedded commas and quotes survive.
		end := -1
		for i := 1; i < len(rest); i++ {
			switch rest[i] {
			case '\\':
				i++ // skip the escaped byte
			case '"':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return 0, "", 0, fmt.Errorf("unterminated label quote in %q", line)
		}
		unq, uerr := strconv.Unquote(rest[:end+1])
		if uerr != nil {
			return 0, "", 0, fmt.Errorf("bad label in %q", line)
		}
		label = unq
		rest = strings.TrimSpace(rest[end+1:])
		if !strings.HasPrefix(rest, ",") {
			return 0, "", 0, fmt.Errorf("malformed transition %q", line)
		}
		rest = rest[1:]
	} else {
		lastComma := strings.LastIndex(rest, ",")
		if lastComma < 0 {
			return 0, "", 0, fmt.Errorf("malformed transition %q", line)
		}
		label = strings.TrimSpace(rest[:lastComma])
		rest = rest[lastComma+1:]
	}
	dst, err = strconv.Atoi(strings.TrimSpace(rest))
	if err != nil {
		return 0, "", 0, fmt.Errorf("bad destination in %q", line)
	}
	return src, label, dst, nil
}
