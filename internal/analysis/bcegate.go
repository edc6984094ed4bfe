package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// The bounds-check gate pins the tiled-kernel performance claim as
// policy-in-code: the kernels' throughput (the LUT kernels of
// internal/axnn, the float conv GEMM of internal/nn) rests on the
// compiler proving every per-element access in their innermost loops
// in-bounds, and one careless index rewrite silently re-inserts a
// branch per MAC. Unlike the AST analyzers, this gate drives the
// compiler itself (`go build -gcflags=-d=ssa/check_bce`) and filters
// its findings down to the innermost loops of the functions named in
// bce_policy.txt. Sites the prove pass fundamentally cannot handle
// (data-dependent sparse scatters) are allowlisted there, with
// reasons, next to the gate entries.

// BCEPolicy is the parsed bce_policy.txt: which functions are gated
// and which file:line sites are accepted. Files are named by their
// slash-separated path relative to the module root (the form the
// compiler prints), so like-named files in different packages cannot
// collide.
type BCEPolicy struct {
	// Gated maps "dir/file.go:funcName" to true.
	Gated map[string]bool
	// Allowed maps "dir/file.go:line" to the recorded reason.
	Allowed map[string]string
}

// LoadBCEPolicy parses the policy file. Lines are
// `gate dir/file.go:func`, `allow dir/file.go:line -- reason`, blank,
// or #-comments. A site without a directory is rejected: it would
// match a like-named file in every gated package.
func LoadBCEPolicy(path string) (*BCEPolicy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p := &BCEPolicy{Gated: map[string]bool{}, Allowed: map[string]string{}}
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		verb, rest, _ := strings.Cut(line, " ")
		if verb != "gate" && verb != "allow" {
			return nil, fmt.Errorf("%s:%d: unknown policy verb %q", path, lineno, verb)
		}
		site, reason, _ := strings.Cut(strings.TrimSpace(rest), "--")
		site = strings.TrimSpace(site)
		if !strings.Contains(site, "/") {
			return nil, fmt.Errorf("%s:%d: site %q is not package-qualified; name the file by its module-relative path (internal/pkg/file.go)", path, lineno, site)
		}
		if verb == "gate" {
			p.Gated[site] = true
		} else {
			p.Allowed[site] = strings.TrimSpace(reason)
		}
	}
	return p, sc.Err()
}

var bceDiag = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): Found (IsInBounds|IsSliceInBounds)`)

// RunBCE builds pkgs (import path patterns relative to moduleRoot,
// like ./internal/axnn) with the SSA check_bce debug flag and returns
// the bounds checks that land inside the innermost loops of gated
// functions and are not allowlisted. -a defeats the build cache, which
// would otherwise swallow the compiler's diagnostics on a cache hit;
// one build covers every package.
func RunBCE(moduleRoot string, policy *BCEPolicy, pkgs ...string) ([]Diagnostic, error) {
	cmd := exec.Command("go", append([]string{"build", "-a", "-gcflags=-d=ssa/check_bce"}, pkgs...)...)
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	// check_bce findings are warnings (exit 0); a nonzero status means
	// the build itself failed, and the output is the explanation.
	if err != nil {
		return nil, fmt.Errorf("go build -d=ssa/check_bce: %v\n%s", err, out)
	}

	ranges := map[string][]loopRange{}
	for _, pkg := range pkgs {
		if err := gatedInnerLoopRanges(moduleRoot, path.Clean(pkg), policy, ranges); err != nil {
			return nil, err
		}
	}

	var diags []Diagnostic
	for _, line := range strings.Split(string(out), "\n") {
		m := bceDiag.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		file := m[1]
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		rel := file
		if filepath.IsAbs(rel) {
			if r, err := filepath.Rel(moduleRoot, rel); err == nil {
				rel = r
			}
		}
		rel = path.Clean(filepath.ToSlash(rel))
		fn := ""
		for _, r := range ranges[rel] {
			if lineNo > r.lbrace && lineNo <= r.rbrace {
				fn = r.fn
				break
			}
		}
		if fn == "" {
			continue // outside every gated innermost loop
		}
		if _, ok := policy.Allowed[fmt.Sprintf("%s:%d", rel, lineNo)]; ok {
			continue
		}
		diags = append(diags, Diagnostic{
			Analyzer: "bcegate",
			File:     file,
			Line:     lineNo,
			Col:      col,
			Message:  fmt.Sprintf("%s in innermost loop of gated kernel %s: this inserts a branch per element; restructure so the prove pass can eliminate it, or allowlist the site in bce_policy.txt with a reason", m[4], fn),
		})
	}
	return diags, nil
}

// loopRange is one innermost-loop body: diagnostics with
// lbrace < line <= rbrace fall inside it. The range deliberately
// excludes the for/range header line itself — the per-iteration bound
// checks the runtime performs on the range expression are charged to
// that line and are not per-element work.
type loopRange struct {
	fn     string
	lbrace int
	rbrace int
}

// gatedInnerLoopRanges parses the package directory pkgDir (slash
// path relative to moduleRoot; syntax only) and adds, per
// module-relative file path, the innermost-loop body line ranges of
// every gated function to ranges.
func gatedInnerLoopRanges(moduleRoot, pkgDir string, policy *BCEPolicy, ranges map[string][]loopRange) error {
	fset := token.NewFileSet()
	dir := filepath.Join(moduleRoot, filepath.FromSlash(pkgDir))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		rel := path.Join(pkgDir, name)
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !policy.Gated[rel+":"+fd.Name.Name] {
				continue
			}
			for _, body := range innermostLoopBodies(fd.Body) {
				ranges[rel] = append(ranges[rel], loopRange{
					fn:     fd.Name.Name,
					lbrace: fset.Position(body.Lbrace).Line,
					rbrace: fset.Position(body.Rbrace).Line,
				})
			}
		}
	}
	return nil
}

// innermostLoopBodies returns the bodies of loops that contain no
// nested loop — the per-element hot paths the gate protects.
func innermostLoopBodies(body *ast.BlockStmt) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			var b *ast.BlockStmt
			switch l := m.(type) {
			case *ast.ForStmt:
				b = l.Body
			case *ast.RangeStmt:
				b = l.Body
			default:
				return true
			}
			if containsLoop(b) {
				visit(b) // descend; only the innermost level is gated
			} else {
				out = append(out, b)
			}
			return false
		})
	}
	visit(body)
	return out
}

func containsLoop(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}
