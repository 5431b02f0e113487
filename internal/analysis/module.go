package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// This file is the second analysis tier. Package-tier analyzers (analysis.go)
// see one type-checked package at a time; module-tier analyzers see the whole
// module at once through the static call graph (callgraph.go), which is what
// transitive contracts — "core code never reaches an unsanctioned goroutine
// launch or ambient clock, no matter how many helper hops away" — require.
//
// Both tiers report into one diagnostic stream, share the //ml4db:allow
// suppression syntax, and are orchestrated by Analyze, which also implements
// unused-suppression detection for cmd/ml4db-vet's -strict-suppress mode.

// ModuleAnalyzer is one named whole-module check.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(*ModulePass)
}

// ModulePass carries the module call graph through one module analyzer.
// Analyzers must restrict their reports to the Targets set: the graph spans
// every loaded package (so edges through helpers resolve), but only the
// packages the user asked about are being vetted.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Graph    *CallGraph
	Fset     *token.FileSet
	// Targets are the packages being reported on.
	Targets []*Package

	sink *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// NodesIn returns the call-graph nodes declared in pkg, sorted by position
// so module analyzers iterate deterministically.
func (p *ModulePass) NodesIn(pkg *Package) []*FuncNode {
	var out []*FuncNode
	for _, n := range p.Graph.Nodes {
		if n.Pkg == pkg {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// AllModule returns the module-tier analyzer suite in deterministic order.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		SpawnReachAnalyzer,
		ClockFlowAnalyzer,
	}
}

// knownAnalyzerNames indexes every analyzer name across both tiers, for
// suppression validation and CLI name resolution.
func knownAnalyzerNames() map[string]bool {
	names := map[string]bool{}
	for _, a := range All() {
		names[a.Name] = true
	}
	for _, a := range AllModule() {
		names[a.Name] = true
	}
	return names
}

// SelectAnalyzers resolves names across both tiers. Unknown names return an
// error listing every valid one.
func SelectAnalyzers(names []string) ([]*Analyzer, []*ModuleAnalyzer, error) {
	pkgIndex := map[string]*Analyzer{}
	var valid []string
	for _, a := range All() {
		pkgIndex[a.Name] = a
		valid = append(valid, a.Name)
	}
	modIndex := map[string]*ModuleAnalyzer{}
	for _, a := range AllModule() {
		modIndex[a.Name] = a
		valid = append(valid, a.Name)
	}
	var pkgAs []*Analyzer
	var modAs []*ModuleAnalyzer
	for _, n := range names {
		switch {
		case pkgIndex[n] != nil:
			pkgAs = append(pkgAs, pkgIndex[n])
		case modIndex[n] != nil:
			modAs = append(modAs, modIndex[n])
		default:
			return nil, nil, fmt.Errorf("analysis: unknown analyzer %q (valid: %s)", n, strings.Join(valid, ", "))
		}
	}
	return pkgAs, modAs, nil
}

// Finding is one diagnostic with its suppression outcome. Suppressed findings
// are kept (for -json output and the unused-suppression audit) but do not
// fail the vet run.
type Finding struct {
	Diagnostic
	Suppressed bool
	// Reason is the suppression's quoted justification when Suppressed.
	Reason string `json:",omitempty"`
}

// Analyze runs both analyzer tiers over the target packages and resolves
// suppressions. all is the universe the call graph is built over (normally
// Loader.AllLoaded(), so edges through non-target helper packages resolve);
// when nil, targets is used. With strictSuppress, //ml4db:allow comments that
// suppressed nothing — among analyzers that actually ran — become findings
// themselves.
func Analyze(targets, all []*Package, pkgAnalyzers []*Analyzer, modAnalyzers []*ModuleAnalyzer, strictSuppress bool) []Finding {
	if len(targets) == 0 {
		return nil
	}
	var diags []Diagnostic
	for _, pkg := range targets {
		for _, a := range pkgAnalyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.Path,
				sink:     &diags,
			})
		}
	}
	if len(modAnalyzers) > 0 {
		if all == nil {
			all = targets
		}
		graph := BuildCallGraph(all)
		for _, a := range modAnalyzers {
			a.Run(&ModulePass{
				Analyzer: a,
				Graph:    graph,
				Fset:     targets[0].Fset,
				Targets:  targets,
				sink:     &diags,
			})
		}
	}

	var sup suppressionSet
	for _, pkg := range targets {
		s := collectSuppressions(pkg.Fset, pkg.Files)
		sup.entries = append(sup.entries, s.entries...)
		sup.malformed = append(sup.malformed, s.malformed...)
	}

	findings := make([]Finding, 0, len(diags)+len(sup.malformed))
	for _, d := range diags {
		f := Finding{Diagnostic: d}
		if i, ok := sup.match(d); ok {
			sup.entries[i].used = true
			f.Suppressed = true
			f.Reason = sup.entries[i].reason
		}
		findings = append(findings, f)
	}
	for _, d := range sup.malformed {
		findings = append(findings, Finding{Diagnostic: d})
	}
	if strictSuppress {
		ran := map[string]bool{}
		for _, a := range pkgAnalyzers {
			ran[a.Name] = true
		}
		for _, a := range modAnalyzers {
			ran[a.Name] = true
		}
		for _, e := range sup.entries {
			if e.used || !ran[e.analyzer] {
				continue
			}
			findings = append(findings, Finding{Diagnostic: Diagnostic{
				Pos:      e.pos,
				Analyzer: "suppression",
				Message:  fmt.Sprintf("unused //ml4db:allow %s: it suppresses no finding; delete it or re-justify", e.analyzer),
			}})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		return lessDiagnostic(findings[i].Diagnostic, findings[j].Diagnostic)
	})
	return findings
}

func lessDiagnostic(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}
