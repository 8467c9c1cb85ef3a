package analyzers

import (
	"fmt"
	"strings"

	"crowdplanner/internal/analysis"
)

// Annotations is the framework-level annotation checker: malformed
// //cplint: comments (unknown directive, unknown analyzer, missing reason)
// are reported under this name by the suppression machinery itself, which
// runs unconditionally. The entry exists so -list documents the name and so
// the catalogue matches the set of names findings can carry; it has no Run
// of its own.
var Annotations = &analysis.Analyzer{
	Name: "cplint",
	Doc:  "well-formedness of //cplint: annotations (framework check, always on)",
}

// All returns the full analyzer catalogue in stable (alphabetical) order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Annotations, Ctxflow, Detorder,
		Floatdet, Goroleak, Hotalloc,
		Locks, Sentinel, Wallclock,
	}
}

// Names lists every analyzer name; this is the suppression vocabulary.
func Names() []string {
	var out []string
	for _, a := range All() {
		out = append(out, a.Name)
	}
	return out
}

// Select resolves a comma-separated -only list against the catalogue.
func Select(only string) ([]*analysis.Analyzer, error) {
	if strings.TrimSpace(only) == "" {
		return All(), nil
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(only, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run cplint -list)", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	return out, nil
}
