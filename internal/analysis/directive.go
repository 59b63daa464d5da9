package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Directive is one parsed //cyclecover:<verb> [reason] comment. The
// grammar (DESIGN.md §9) is:
//
//	//cyclecover:<verb> <reason...>
//
// with no space before the verb. Opt-out verbs (nondet, rngok, allocok,
// ctxfree, nodoc) suppress a finding on the same line or the line
// directly below the comment, and require a non-empty reason; a bare
// opt-out is itself a finding. The opt-in verb noalloc appears in a
// function's doc comment and carries no reason.
type Directive struct {
	// Verb is the directive keyword: nondet, rngok, allocok, ctxfree,
	// nodoc, or noalloc.
	Verb string
	// Reason is the free-text justification after the verb.
	Reason string
	// Pos is the comment's position.
	Pos token.Position
}

// directivePrefix introduces every annotation the suite understands.
const directivePrefix = "//cyclecover:"

// knownVerbs lists the grammar's vocabulary; anything else after the
// prefix is reported as a typo by the runner.
var knownVerbs = map[string]bool{
	"nondet":  true, // detiter: sanctioned order-nondeterministic iteration
	"rngok":   true, // rngdiscipline: sanctioned wall-clock/global-RNG use
	"allocok": true, // noalloc: sanctioned allocation inside a noalloc function
	"ctxfree": true, // ctxdiscipline: sanctioned context-free exported function pinning Background
	"nodoc":   true, // docs: sanctioned undocumented identifier/package
	"noalloc": true, // noalloc: opt-in marking a function's warm path

	// faultpoint is inverted relative to the opt-outs above: it is the
	// *required* annotation on fault-injection call sites, and its absence
	// (not its presence) is the finding.
	"faultpoint": true, // faultpoint: documents a faultinject.Inject chaos hook
}

// parseDirectives extracts every //cyclecover: comment from a file.
func parseDirectives(fset *token.FileSet, f *ast.File) []Directive {
	var ds []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, directivePrefix)
			verb, reason, _ := strings.Cut(rest, " ")
			// A reason ends at an embedded comment marker, so fixture
			// `// want` annotations (and stray trailing comments) are
			// never mistaken for justifications. Reasons therefore must
			// not contain "//" (DESIGN.md §9).
			if i := strings.Index(reason, "//"); i >= 0 {
				reason = reason[:i]
			}
			ds = append(ds, Directive{
				Verb:   strings.TrimSpace(verb),
				Reason: strings.TrimSpace(reason),
				Pos:    fset.Position(c.Pos()),
			})
		}
	}
	return ds
}

// Exempt reports whether a justified directive with the given verb is
// attached to pos: on the same source line, or alone on the line above.
// A directive without a reason never exempts (the runner flags it).
func (p *Pass) Exempt(pos token.Pos, verb string) bool {
	line := p.Fset.Position(pos)
	for _, d := range p.directives {
		if d.Verb != verb || d.Reason == "" || d.Pos.Filename != line.Filename {
			continue
		}
		if d.Pos.Line == line.Line || d.Pos.Line == line.Line-1 {
			return true
		}
	}
	return false
}

// FuncDirective reports whether fn's doc comment carries the given
// opt-in verb (e.g. noalloc).
func FuncDirective(fn *ast.FuncDecl, verb string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, directivePrefix) {
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			v, _, _ := strings.Cut(rest, " ")
			if strings.TrimSpace(v) == verb {
				return true
			}
		}
	}
	return false
}

// validateDirectives reports grammar violations — unknown verbs and
// reason-less opt-outs — as findings of the pseudo-analyzer "directive".
func validateDirectives(pkg *Package, diags *[]Diagnostic) {
	for _, d := range pkg.Directives {
		switch {
		case !knownVerbs[d.Verb]:
			*diags = append(*diags, Diagnostic{
				Pos:      d.Pos,
				Analyzer: "directive",
				Message:  "unknown cyclecover directive verb " + strconv.Quote(d.Verb),
			})
		case d.Verb != "noalloc" && d.Reason == "":
			*diags = append(*diags, Diagnostic{
				Pos:      d.Pos,
				Analyzer: "directive",
				Message:  "cyclecover:" + d.Verb + " requires a reason",
			})
		}
	}
}
