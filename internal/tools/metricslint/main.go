// Command metricslint validates a Prometheus text-format exposition read
// from standard input — the CI metrics-scrape smoke check; its tests lint an
// in-process scrape of the server's registry (the docslint pattern applied
// to the /metrics surface: exactly the house rules, no external dependency).
//
// Usage:
//
//	curl -s -H "Authorization: Bearer $TOKEN" localhost:8080/metrics | go run ./internal/tools/metricslint
//
// Findings are printed as line N: message and the exit status is 1 if
// there are any.
//
// Rules:
//
//   - Metric and family names match [a-zA-Z_:][a-zA-Z0-9_:]*.
//   - Every sample belongs to a family announced by # HELP and # TYPE
//     lines, and each family is announced exactly once.
//   - Counter family names end in _total (the repository's naming rule).
//   - Sample values parse as floats; no series (name plus label set)
//     appears twice.
//   - Histogram bucket `le` values parse and increase, cumulative bucket
//     counts are non-decreasing, the last bucket is le="+Inf", and the
//     series has a _sum and a _count equal to that bucket.
package main

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// nameRE is the exposition-format metric name grammar.
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// histState accumulates one histogram series' bucket walk so the
// monotonicity and +Inf rules can be checked as lines stream by.
type histState struct {
	prev    float64 // last cumulative bucket value
	prevLe  float64 // last le bound
	sawInf  bool
	infVal  float64
	sawSum  bool
	sawCnt  bool
	cntVal  float64
	anyLine int
}

func main() {
	problems := lint(os.Stdin)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Printf("metricslint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("metricslint: ok")
}

// lint reads an exposition and returns its problems, each "line N: message":
// those of each line as it is read, then those of each histogram series, by
// name. None means the exposition keeps every rule.
func lint(r io.Reader) (problems []string) {
	report := func(line int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	types := make(map[string]string)     // family -> type
	helped := make(map[string]bool)      // family -> saw HELP
	seen := make(map[string]int)         // name{labels} -> first line
	hists := make(map[string]*histState) // histogram name + bare labels -> state
	finishHist := func(key string, st *histState) {
		if !st.sawInf {
			report(st.anyLine, "histogram %s has no le=\"+Inf\" bucket", key)
			return
		}
		if !st.sawCnt {
			report(st.anyLine, "histogram %s has no _count", key)
		} else if st.cntVal != st.infVal {
			report(st.anyLine, "histogram %s: _count %g != +Inf bucket %g", key, st.cntVal, st.infVal)
		}
		if !st.sawSum {
			report(st.anyLine, "histogram %s has no _sum", key)
		}
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest := parseComment(line)
			switch kind {
			case "HELP":
				if name == "" {
					report(n, "malformed HELP line %q", line)
					continue
				}
				if helped[name] {
					report(n, "duplicate HELP for %s", name)
				}
				helped[name] = true
			case "TYPE":
				if name == "" || rest == "" {
					report(n, "malformed TYPE line %q", line)
					continue
				}
				if !nameRE.MatchString(name) {
					report(n, "invalid family name %q", name)
				}
				if _, dup := types[name]; dup {
					report(n, "duplicate TYPE for %s", name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					report(n, "unknown type %q for %s", rest, name)
				}
				if rest == "counter" && !strings.HasSuffix(name, "_total") {
					report(n, "counter %s does not end in _total", name)
				}
				types[name] = rest
			}
			continue
		}
		name, labels, value, ok := parseSample(line)
		if !ok {
			report(n, "malformed sample line %q", line)
			continue
		}
		if !nameRE.MatchString(name) {
			report(n, "invalid metric name %q", name)
			continue
		}
		val, err := strconv.ParseFloat(value, 64)
		if err != nil {
			report(n, "unparsable value %q for %s", value, name)
			continue
		}
		family := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, s)
			if base != name {
				if t, known := types[base]; known && t == "histogram" {
					family, suffix = base, s
				}
				break
			}
		}
		typ, known := types[family]
		if !known {
			report(n, "sample %s has no preceding # TYPE", name)
			continue
		}
		if !helped[family] {
			report(n, "sample %s has no preceding # HELP", name)
		}
		series := name + "{" + labels + "}"
		if first, dup := seen[series]; dup {
			report(n, "duplicate series %s (first at line %d)", series, first)
		}
		seen[series] = n

		if typ != "histogram" {
			continue
		}
		le, bare := splitLe(labels)
		key := family + "{" + bare + "}"
		st := hists[key]
		if st == nil {
			st = &histState{prevLe: -1}
			hists[key] = st
		}
		st.anyLine = n
		switch suffix {
		case "_bucket":
			if le == "" {
				report(n, "histogram bucket %s has no le label", series)
				continue
			}
			bound, inf := parseLe(le)
			if !inf && bound != bound { // NaN: parse failure
				report(n, "unparsable le %q on %s", le, series)
				continue
			}
			if val < st.prev {
				report(n, "histogram %s: cumulative bucket %g < previous %g", key, val, st.prev)
			}
			if !inf && bound <= st.prevLe {
				report(n, "histogram %s: le %g out of order", key, bound)
			}
			st.prev = val
			if inf {
				st.sawInf, st.infVal = true, val
			} else {
				st.prevLe = bound
			}
		case "_sum":
			st.sawSum = true
		case "_count":
			st.sawCnt, st.cntVal = true, val
		default:
			report(n, "bare sample %s of histogram family %s", name, family)
		}
	}
	if err := sc.Err(); err != nil {
		report(n, "read: %v", err)
	}
	for _, key := range slices.Sorted(maps.Keys(hists)) {
		finishHist(key, hists[key])
	}
	if n == 0 {
		report(0, "empty exposition")
	}
	return problems
}

// parseComment splits a # HELP/# TYPE line into kind, family name, and
// the remainder (type keyword or help text).
func parseComment(line string) (kind, name, rest string) {
	fields := strings.SplitN(strings.TrimPrefix(line, "#"), " ", 4)
	// fields[0] is "" (the space after #).
	if len(fields) < 3 {
		return "", "", ""
	}
	kind = fields[1]
	name = fields[2]
	if len(fields) == 4 {
		rest = fields[3]
	}
	return kind, name, rest
}

// parseSample splits a sample line into name, rendered labels (without
// braces, "" if unlabeled) and the value text.
func parseSample(line string) (name, labels, value string, ok bool) {
	// name{labels} value  |  name value
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", "", false
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		k := strings.IndexByte(rest, ' ')
		if k < 0 {
			return "", "", "", false
		}
		name = rest[:k]
		rest = strings.TrimSpace(rest[k+1:])
	}
	// A timestamp after the value is legal in the format; we emit none,
	// but tolerate one.
	if k := strings.IndexByte(rest, ' '); k >= 0 {
		rest = rest[:k]
	}
	if name == "" || rest == "" {
		return "", "", "", false
	}
	return name, labels, rest, true
}

// splitLe extracts the le label from a rendered label set, returning the
// le value and the remaining labels (the histogram series key).
func splitLe(labels string) (le, bare string) {
	var parts []string
	for _, p := range strings.Split(labels, ",") {
		if v, found := strings.CutPrefix(p, `le="`); found {
			le = strings.TrimSuffix(v, `"`)
			continue
		}
		if p != "" {
			parts = append(parts, p)
		}
	}
	return le, strings.Join(parts, ",")
}

// parseLe parses a bucket bound; inf reports le="+Inf". A NaN return
// with inf false signals a parse failure.
func parseLe(le string) (bound float64, inf bool) {
	if le == "+Inf" {
		return 0, true
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return nan(), false
	}
	return v, false
}

// nan returns a quiet NaN without importing math for one constant.
func nan() float64 {
	v := 0.0
	return v / v
}
