// Command neogeolint is the project's invariant checker: a
// multichecker driving the analyzers under internal/analysis/passes
// over the module. It runs two ways:
//
//	neogeolint ./...                      # standalone, from the module root
//	go vet -vettool=$(which neogeolint) ./...  # inside the go vet cache
//
// Standalone mode loads packages via `go list -export` and prints
// findings to stdout (exit 1 when there are any; -json emits them as a
// machine-readable array; -artifact writes that array to a file even
// when the tree is clean, which CI uploads on every run). Vet mode
// speaks cmd/go's vettool protocol: answer -V=full with a stable
// version line, read the vet.cfg the go command supplies, analyze that
// one package against the export data in the config, exchange
// cross-package facts through the .vetx files cmd/go shuttles between
// packages, and exit nonzero on findings.
//
// -baseline accepts a findings file (the -json / -artifact shape) and
// suppresses every finding already in it, so a newly adopted analyzer
// can gate new violations before the old ones are paid down. Matching
// is by analyzer, file, and message — line-independent, so unrelated
// edits above a known finding do not resurface it.
//
// Suppress a single finding with a justified directive on or above the
// line:
//
//	//lint:ignore atomicwrite scratch file, durability not required
//
// An ignore directive that matches no finding is itself reported:
// stale suppressions hide nothing and rot.
//
// See docs/INVARIANTS.md for the invariant each analyzer pins.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

// version identifies the tool to cmd/go's -V=full handshake; bump it
// to invalidate go vet's result cache after changing an analyzer.
// v2.0.0: dataflow engine (inspect/lockspan), facts, and the
// versionbump/postcommit/lockdiscipline/metriclabels analyzers.
// v2.1.0: versionbump is a structural check of the Tx/Batch shape;
// postcommit drops its early-publish rule.
const version = "v2.1.0"

func analyzers() []*analysis.Analyzer {
	return suite.Analyzers()
}

func main() {
	// cmd/go probes the tool's identity before first use, and asks for
	// its flag set (as a JSON array) so `go vet` can accept and forward
	// tool flags on its own command line.
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-V=full", "-V":
			// The output is cmd/go's cache key for vet results: include a
			// content hash of the binary so a rebuilt tool with changed
			// analyzers invalidates stale cached findings even when the
			// human-facing version string was not bumped.
			fmt.Printf("neogeolint version %s build %s\n", version, selfHash())
			return
		case "-flags":
			type flagDesc struct {
				Name  string
				Bool  bool
				Usage string
			}
			out, err := json.Marshal([]flagDesc{
				{Name: "json", Bool: true, Usage: "emit findings as JSON on stdout"},
				{Name: "list", Bool: true, Usage: "list analyzers and exit"},
				{Name: "baseline", Usage: "findings file of accepted violations; fail only on new ones"},
				{Name: "artifact", Usage: "write findings JSON to this file, clean runs included"},
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Printf("%s\n", out)
			return
		}
	}

	fs := flag.NewFlagSet("neogeolint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout")
	list := fs.Bool("list", false, "list analyzers and exit")
	baseline := fs.String("baseline", "", "findings file of accepted violations; fail only on new ones")
	artifact := fs.String("artifact", "", "write findings JSON to this file, clean runs included")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: neogeolint [-json] [-baseline file] [-artifact file] [packages]\n       go vet -vettool=neogeolint [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers() {
			fmt.Fprintf(fs.Output(), "  %-15s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers() {
			fmt.Printf("%-15s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVet(args[0])
		return
	}
	runStandalone(args, *jsonOut, *baseline, *artifact)
}

// selfHash fingerprints the running executable for the -V=full
// handshake.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// finding is the JSON shape of one diagnostic — also the baseline and
// artifact file format.
type finding struct {
	Position string `json:"position"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// key is the line-independent identity used for baseline matching.
func (f finding) key() string {
	file := f.Position
	if i := strings.IndexByte(file, ':'); i >= 0 {
		file = file[:i]
	}
	return f.Analyzer + "|" + file + "|" + f.Message
}

// toFinding renders a diagnostic with a working-directory-relative
// position, so baselines written on one checkout match another.
func toFinding(fset *token.FileSet, d analysis.Diagnostic) finding {
	pos := fset.Position(d.Pos)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
	}
	return finding{Position: pos.String(), Analyzer: d.Analyzer, Message: d.Message}
}

// loadBaseline reads an accepted-findings file into a key set.
func loadBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var known []finding
	if err := json.Unmarshal(data, &known); err != nil {
		return nil, fmt.Errorf("neogeolint: parsing baseline %s: %w", path, err)
	}
	keys := make(map[string]bool, len(known))
	for _, f := range known {
		keys[f.key()] = true
	}
	return keys, nil
}

func runStandalone(patterns []string, jsonOut bool, baselinePath, artifactPath string) {
	pkgs, err := analysis.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := analysis.RunPackages(pkgs, analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fset := pkgs[0].Fset

	findings := []finding{} // empty array, not null, when clean
	for _, d := range diags {
		findings = append(findings, toFinding(fset, d))
	}

	if baselinePath != "" {
		known, err := loadBaseline(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fresh := findings[:0]
		suppressed := 0
		for _, f := range findings {
			if known[f.key()] {
				suppressed++
				continue
			}
			fresh = append(fresh, f)
		}
		findings = fresh
		if suppressed > 0 && !jsonOut {
			fmt.Fprintf(os.Stderr, "neogeolint: %d baseline finding(s) suppressed\n", suppressed)
		}
	}

	if artifactPath != "" {
		data, err := json.MarshalIndent(findings, "", "  ")
		if err == nil {
			err = os.WriteFile(artifactPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s (%s)\n", f.Position, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "neogeolint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
