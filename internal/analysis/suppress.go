package analysis

import (
	"go/token"
	"strconv"
	"strings"
)

// suppression is one parsed, well-formed //cplint: annotation.
type suppression struct {
	file      string
	line      int
	analyzers []string
	reason    string
}

// covers reports whether the suppression silences analyzer findings on the
// given line: its own line (trailing comment) or the line directly below
// (standalone comment above the flagged statement).
func (s *suppression) covers(analyzer string, line int) bool {
	if line != s.line && line != s.line+1 {
		return false
	}
	for _, a := range s.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// parseAnnotations walks a package's comments for cplint annotations.
// Malformed annotations (unknown directive, unknown analyzer name, missing
// " -- reason") become diagnostics under the reserved analyzer name
// "cplint" and suppress nothing — a silent typo must not silently disable a
// check.
func parseAnnotations(pkg *Package, known []string) (sups []suppression, malformed []Diagnostic) {
	isKnown := func(name string) bool {
		for _, k := range known {
			if k == name {
				return true
			}
		}
		return false
	}
	report := func(pos token.Pos, msg string) {
		malformed = append(malformed, Diagnostic{
			Analyzer: "cplint",
			Pos:      pkg.Fset.Position(pos),
			Message:  msg,
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if strings.HasPrefix(c.Text, "/*") {
					text = strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "cplint:") {
					continue
				}
				directive, reason, hasReason := strings.Cut(text, " -- ")
				if !hasReason {
					// A trailing "--" with nothing after it is an empty
					// reason, not part of the directive.
					if d, ok := strings.CutSuffix(text, " --"); ok {
						directive, reason, hasReason = d, "", true
					}
				}
				directive = strings.TrimSpace(directive)
				reason = strings.TrimSpace(reason)
				var names []string
				switch {
				case directive == "cplint:hotpath" && reason == "" && !hasReason:
					// Not a suppression: marks the next function declaration
					// as an allocation-free hot path (see the hotalloc
					// analyzer, which also validates placement).
					continue
				case strings.HasPrefix(directive, "cplint:guardedby") && reason == "" && !hasReason:
					// Not a suppression: declares the mutex guarding a struct
					// field (see the locks analyzer, which validates the
					// spelling, placement, and mutex resolution).
					continue
				case directive == "cplint:ordered-irrelevant":
					names = []string{"detorder"}
				case strings.HasPrefix(directive, "cplint:ignore "):
					unknown := false
					for _, n := range strings.Split(strings.TrimPrefix(directive, "cplint:ignore "), ",") {
						n = strings.TrimSpace(n)
						if n == "" {
							continue
						}
						if !isKnown(n) {
							report(c.Pos(), "cplint annotation names unknown analyzer "+
								strconv.Quote(n)+"; known: "+strings.Join(known, ", "))
							unknown = true
							break
						}
						names = append(names, n)
					}
					if unknown {
						continue
					}
				default:
					report(c.Pos(), "malformed cplint annotation "+strconv.Quote(text)+
						": expected 'cplint:ignore <analyzer> -- <reason>' or 'cplint:ordered-irrelevant -- <reason>'")
					continue
				}
				if len(names) == 0 {
					report(c.Pos(), "cplint:ignore lists no analyzers")
					continue
				}
				if !hasReason || reason == "" {
					report(c.Pos(), "cplint annotation requires a written justification: append ' -- <why this is safe>'")
					continue
				}
				sups = append(sups, suppression{
					file:      pkg.Fset.Position(c.Pos()).Filename,
					line:      pkg.Fset.Position(c.Pos()).Line,
					analyzers: names,
					reason:    reason,
				})
			}
		}
	}
	return sups, malformed
}

// applySuppressions filters findings through the packages' annotations and
// appends the malformed-annotation diagnostics.
func applySuppressions(diags []Diagnostic, pkgs []*Package, known []string) Result {
	type fileKey string
	sups := make(map[fileKey][]suppression)
	var res Result
	for _, pkg := range pkgs {
		ss, malformed := parseAnnotations(pkg, known)
		for _, s := range ss {
			sups[fileKey(s.file)] = append(sups[fileKey(s.file)], s)
		}
		res.Diagnostics = append(res.Diagnostics, malformed...)
	}
	for _, d := range diags {
		suppressed := false
		for _, s := range sups[fileKey(d.Pos.Filename)] {
			if s.covers(d.Analyzer, d.Pos.Line) {
				suppressed = true
				break
			}
		}
		if suppressed {
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	return res
}
