package surface

// Two more questions of the same kind, asked of what is written rather
// than of what is exported: does every flag of cmd/* answer to a command
// somebody runs (TestEveryFlagAnswersToASetter), and does every path,
// Make target, go test regexp, test or benchmark name and binary flag the
// documents mention still exist (TestDocsNameWhatExists, `make
// docs-check`). Both read commands the way a shell would: a word naming
// one of our binaries, then the flags up to the next |, &, ; or comment.

import (
	"go/ast"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const verifySkill = ".claude/skills/verify/SKILL.md"

// located is a piece of a document — an inline `span`, or one logical
// line of a fenced block or Makefile recipe with its \ continuations
// joined — and where it starts.
type located struct {
	text string
	file string
	line int
}

// words splits shell-ish text into words, honouring quotes, ending at an
// unquoted # and giving the separators | || & && ; as words of their own.
func words(s string) []string {
	var out []string
	var cur strings.Builder
	inWord, quote := false, rune(0)
	flush := func() {
		if inWord {
			out = append(out, cur.String())
			cur.Reset()
			inWord = false
		}
	}
	for i, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t' || r == '\n':
			flush()
		case r == '#' && !inWord:
			return out
		case r == '|' || r == '&' || r == ';':
			flush()
			if n := len(out); n > 0 && out[n-1] == string(r) && i > 0 && rune(s[i-1]) == r {
				out[n-1] += string(r)
			} else {
				out = append(out, string(r))
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	flush()
	return out
}

// commands splits words at the shell separators.
func commands(ws []string) [][]string {
	var out [][]string
	start := 0
	for i := 0; i <= len(ws); i++ {
		if i == len(ws) || strings.Trim(ws[i], "|&;") == "" {
			if i > start {
				out = append(out, ws[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// joinContinued yields the logical lines that start at a line keep()
// accepts: a trailing backslash joins the next line.
func joinContinued(file string, lines []string, keep func(i int) bool) []located {
	var out []located
	for i := 0; i < len(lines); i++ {
		if !keep(i) {
			continue
		}
		l := located{file: file, line: i + 1}
		for {
			l.text += strings.TrimSuffix(lines[i], "\\")
			if !strings.HasSuffix(lines[i], "\\") || i+1 >= len(lines) {
				break
			}
			i++
		}
		out = append(out, l)
	}
	return out
}

var (
	inlineSpan = regexp.MustCompile("`([^`]+)`")
	makeRule   = regexp.MustCompile(`^([a-z][\w-]*):`)
	makeTarget = regexp.MustCompile(`^[a-z][\w-]*$`)
	identifier = regexp.MustCompile(`^\w+$`)
)

// markdown returns a document's fenced-block lines and its inline spans
// (a span may wrap across the lines of a paragraph). upTo, when not
// empty, is the heading prefix the reading stops at.
func markdown(t *testing.T, root, file, upTo string) (code, spans []located) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, file))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	// prose[i]: line i is neither inside a fenced block nor a fence.
	fenced, prose := make([]bool, len(lines)), make([]bool, len(lines))
	in := false
	for i, l := range lines {
		if upTo != "" && strings.HasPrefix(l, upTo) {
			lines = lines[:i]
			break
		}
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			in = !in
			continue
		}
		fenced[i], prose[i] = in, !in
	}
	code = joinContinued(file, lines, func(i int) bool { return fenced[i] })
	for i := 0; i < len(lines); i++ {
		start, para := i, ""
		for ; i < len(lines) && prose[i] && strings.TrimSpace(lines[i]) != ""; i++ {
			para += lines[i] + "\n"
		}
		for _, m := range inlineSpan.FindAllStringSubmatchIndex(para, -1) {
			text := strings.Join(strings.Fields(para[m[2]:m[3]]), " ")
			spans = append(spans, located{text, file, start + 1 + strings.Count(para[:m[2]], "\n")})
		}
	}
	return code, spans
}

// recipes returns the Makefile's targets and its recipe lines.
func recipes(t *testing.T, root string) (targets map[string]bool, lines []located) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	all := strings.Split(strings.ReplaceAll(string(b), "$$", "$"), "\n")
	targets = map[string]bool{}
	for _, l := range all {
		if m := makeRule.FindStringSubmatch(l); m != nil {
			targets[m[1]] = true
		}
	}
	return targets, joinContinued("Makefile", all, func(i int) bool { return strings.HasPrefix(all[i], "\t") })
}

// binaries maps each cmd/<name> to the flags its main.go defines, read
// from the flag.T("name", …) and flag.TVar(&v, "name", …) calls.
func binaries(tr *tree) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, s := range tr.files {
		bin, ok := strings.CutPrefix(s.path, module+"/cmd/")
		if !ok {
			continue
		}
		if out[bin] == nil {
			out[bin] = map[string]bool{}
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) > arg+1 {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					out[bin][name] = true
				}
			}
			return true
		})
	}
	return out
}

var flagWord = regexp.MustCompile(`^--?([a-zA-Z][\w-]*)(=.*)?$`)

// passed calls f for every flag a command passes to one of our
// binaries: the words after one whose base name is the binary's.
func passed(cmd []string, bins map[string]map[string]bool, f func(bin, flag string)) {
	bin := ""
	for _, w := range cmd {
		if _, ok := bins[path.Base(w)]; ok {
			bin = path.Base(w)
		} else if m := flagWord.FindStringSubmatch(w); m != nil && bin != "" {
			f(bin, m[1])
		}
	}
}

// goStrings gives, for each call expression of a Go file, the words of
// its string-literal arguments in order — how a test or another binary
// would spell exec.Command("dfmd", "-addr", …) or a shell line.
func goStrings(f *ast.File) [][]string {
	var out [][]string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var ws []string
		for _, a := range call.Args {
			if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				ws = append(ws, words(s)...)
			}
		}
		out = append(out, commands(ws)...)
		return true
	})
	return out
}

// exemptFlags is the allowlist of the flag rule, one entry: binaries
// whose flags stay whether or not a command sets them, and how many
// flags that is, so the exemption cannot grow unseen.
var exemptFlags = struct {
	bins  map[string]bool
	count int
	why   string
}{
	map[string]bool{"dfmd": true, "dfmrouter": true}, 25,
	"the daemons' tuning flags: which of them an operator needs is a question ROADMAP item 8's per-job tracing can answer and a line count cannot",
}

// TestEveryFlagAnswersToASetter is the option-field rule one level up:
// a flag of cmd/* is an option only if some command passes it to that
// binary — a Makefile recipe, a command in README.md or the verify
// skill, a _test.go, or another binary. A flag nobody passes has one
// value, its default, and is a constant with a usage string attached.
// A flag that prose describes but no command passes has no setter.
func TestEveryFlagAnswersToASetter(t *testing.T) {
	tr := load(t)
	bins := binaries(tr)
	set := map[string]bool{}
	mark := func(bin, flag string) { set[bin+" -"+flag] = true }

	_, makeLines := recipes(t, tr.root)
	texts := makeLines
	for _, doc := range []string{"README.md", verifySkill} {
		code, spans := markdown(t, tr.root, doc, "")
		texts = append(append(texts, code...), spans...)
	}
	for _, l := range texts {
		for _, cmd := range commands(words(l.text)) {
			passed(cmd, bins, mark)
		}
	}
	for _, s := range tr.files {
		own := strings.TrimPrefix(s.path, module+"/cmd/")
		for _, cmd := range goStrings(s.file) {
			passed(cmd, bins, func(bin, flag string) {
				if bin != own {
					mark(bin, flag)
				}
			})
		}
	}

	var unset []string
	total, exempted := 0, 0
	for bin, flags := range bins {
		for f := range flags {
			total++
			if exemptFlags.bins[bin] {
				exempted++
			} else if !set[bin+" -"+f] {
				unset = append(unset, bin+" -"+f)
			}
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d of %d flags of cmd/* that no Makefile recipe, README or verify-skill command, test or other binary passes (make it a constant or add the caller):\n%s",
			len(unset), total, strings.Join(unset, "\n"))
	}
	if exempted != exemptFlags.count {
		t.Errorf("dfmd and dfmrouter define %d flags, the exemption covers %d (%s): make the new one a constant or add the caller",
			exempted, exemptFlags.count, exemptFlags.why)
	}
	t.Logf("%d flags, %d of them exempt", total, exempted)
}

// funcsByPackage lists the Test, Benchmark, Fuzz and Example functions
// of every package, by directory relative to the module root.
func funcsByPackage(tr *tree) map[string][]string {
	out := map[string][]string{}
	for _, s := range tr.files {
		dir := strings.TrimPrefix(strings.TrimPrefix(s.path, module), "/")
		if dir == "" {
			dir = "."
		}
		for _, d := range s.file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
				out[dir] = append(out[dir], fn.Name.Name)
			}
		}
	}
	return out
}

var (
	testFunc = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)($|[^a-z])`)
	// pathLike is what may be a path of this repository: no spaces,
	// no placeholders, optionally a :line suffix.
	pathLike = regexp.MustCompile(`^(?:\./)?([\w.*-]+(?:/[\w.*-]+)*)/?(?::\d+)?$`)
	fileExt  = regexp.MustCompile(`\.(go|md|json|jsonl|txt|sh|mod|golden)$`)
)

// TestDocsNameWhatExists is `make docs-check`. Over README.md, DESIGN.md,
// doc.go, the verify skill and EXPERIMENTS.md above R1 (R-sections are
// history and name deleted things on purpose; benchmark/README.md is not
// ours to edit) it fails, by file and line, on
//
//   - a path that is not in the tree: a backticked span or a word of a
//     fenced block that has a known file extension or starts at a
//     top-level directory (bin/ and other ignored output excepted); a bare
//     file name may be anywhere in the tree, a/b.go may be the tail of a path;
//   - `make X` where the Makefile has no target X;
//   - a `go test` command whose -run, -bench or -fuzz regexp matches no
//     such function of the package it names. The match is go test's own —
//     an unanchored regexp, first /-element only — so a prefix of a real
//     name passes; `^$` (run nothing) is not checked;
//   - a backticked TestX / BenchmarkX / FuzzX (a trailing * is a prefix)
//     that no package declares;
//   - a flag passed to one of our binaries that the binary does not define.
func TestDocsNameWhatExists(t *testing.T) {
	tr := load(t)
	bins := binaries(tr)
	funcs := funcsByPackage(tr)
	targets, _ := recipes(t, tr.root)

	// Every file and directory of the tree, for the path rule.
	var entries []string
	top := map[string]bool{}
	ignored := map[string]bool{"bin": true, ".bench_build": true, "benchmark/out": true}
	err := filepath.WalkDir(tr.root, func(p string, d os.DirEntry, err error) error {
		rel, _ := filepath.Rel(tr.root, p)
		rel = filepath.ToSlash(rel)
		if err != nil || rel == "." {
			return err
		}
		if d.IsDir() && (rel == ".git" || ignored[rel]) {
			return filepath.SkipDir
		}
		entries = append(entries, rel)
		if !strings.Contains(rel, "/") && d.IsDir() {
			top[rel] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(p string) bool {
		for _, e := range entries {
			for tail := e; ; {
				if ok, _ := path.Match(p, tail); ok {
					return true
				}
				i := strings.Index(tail, "/")
				if i < 0 {
					break
				}
				tail = tail[i+1:]
			}
		}
		return false
	}

	var code, spans []located
	for doc, upTo := range map[string]string{"README.md": "", "DESIGN.md": "", verifySkill: "", "EXPERIMENTS.md": "## R1 "} {
		c, s := markdown(t, tr.root, doc, upTo)
		code, spans = append(code, c...), append(spans, s...)
	}
	// doc.go has no backticks: every word of its comment is a span.
	b, err := os.ReadFile(filepath.Join(tr.root, "doc.go"))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range strings.Split(string(b), "\n") {
		for _, w := range strings.Fields(strings.TrimPrefix(l, "//")) {
			spans = append(spans, located{w, "doc.go", i + 1})
		}
	}

	var bad []string
	report := func(l located, msg string) { bad = append(bad, l.file+":"+strconv.Itoa(l.line)+": "+msg) }

	checkPath := func(l located, w string) {
		m := pathLike.FindStringSubmatch(w)
		if m == nil {
			return
		}
		p := m[1]
		first, _, nested := strings.Cut(p, "/")
		if ignored[first] || first == ".." || strings.Trim(p, ".*") == "" {
			return
		}
		if (nested && top[first]) || fileExt.MatchString(p) {
			if !exists(p) {
				report(l, "no such path "+p)
			}
		}
	}
	checkCommand := func(l located, cmd []string) {
		passed(cmd, bins, func(bin, flag string) {
			if !bins[bin][flag] {
				report(l, bin+" defines no flag -"+flag)
			}
		})
		for i, w := range cmd {
			if w == "make" && i+1 < len(cmd) && makeTarget.MatchString(cmd[i+1]) && !targets[cmd[i+1]] {
				report(l, "no Make target "+cmd[i+1])
			}
		}
		checkGoTest(cmd, funcs, func(msg string) { report(l, msg) })
	}
	for _, l := range code {
		ws := words(l.text)
		for _, w := range ws {
			checkPath(l, w)
		}
		for _, cmd := range commands(ws) {
			checkCommand(l, cmd)
		}
	}
	for _, l := range spans {
		checkPath(l, l.text)
		for _, cmd := range commands(words(l.text)) {
			checkCommand(l, cmd)
		}
		if name, isPrefix := strings.CutSuffix(l.text, "*"); testFunc.MatchString(name) && identifier.MatchString(name) {
			found := false
			for _, names := range funcs {
				for _, n := range names {
					found = found || n == name || (isPrefix && strings.HasPrefix(n, name))
				}
			}
			if !found {
				report(l, "no package declares "+l.text)
			}
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d names in the documents that nothing in the tree answers to:\n%s", len(bad), strings.Join(bad, "\n"))
	}
}

// checkGoTest reports the -run / -bench / -fuzz regexps of a `go test`
// command that match no function of the packages it names.
func checkGoTest(cmd []string, funcs map[string][]string, report func(string)) {
	at := -1
	for i := 0; i+1 < len(cmd); i++ {
		if cmd[i] == "go" && cmd[i+1] == "test" {
			at = i + 2
			break
		}
	}
	if at < 0 {
		return
	}
	kinds := map[string]string{"run": "Test|Example|Fuzz", "bench": "Benchmark", "fuzz": "Fuzz"}
	type pattern struct{ flag, re string }
	var pats []pattern
	var pkgs []string
	chdir := ""
	for i := at; i < len(cmd); i++ {
		w := cmd[i]
		m := flagWord.FindStringSubmatch(w)
		switch {
		case m == nil:
			pkgs = append(pkgs, w)
		case m[1] == "C" && i+1 < len(cmd):
			i++
			chdir = cmd[i]
		case kinds[m[1]] != "" && m[2] != "":
			pats = append(pats, pattern{m[1], m[2][1:]})
		case kinds[m[1]] != "" && i+1 < len(cmd):
			i++
			pats = append(pats, pattern{m[1], cmd[i]})
		case m[2] == "" && i+1 < len(cmd) && !strings.HasPrefix(cmd[i+1], "-") && !strings.HasPrefix(cmd[i+1], "."):
			i++ // a flag's value, e.g. -count 1, -cpu 1, -o file
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	for _, p := range pats {
		first, _, _ := strings.Cut(p.re, "/")
		re, err := regexp.Compile(first)
		if first == "^$" || first == "." {
			continue
		}
		if err != nil {
			report("-" + p.flag + " " + p.re + ": " + err.Error())
			continue
		}
		kind := regexp.MustCompile("^(" + kinds[p.flag] + ")")
		found := false
		for _, pkg := range pkgs {
			dir := path.Join(chdir, strings.TrimSuffix(pkg, "..."))
			for d, names := range funcs {
				if d != dir && !(strings.HasSuffix(pkg, "...") && (dir == "." || strings.HasPrefix(d+"/", dir+"/"))) {
					continue
				}
				for _, n := range names {
					found = found || (kind.MatchString(n) && re.MatchString(n))
				}
			}
		}
		if !found {
			report("go test -" + p.flag + " " + p.re + " matches no function of " + strings.Join(pkgs, " "))
		}
	}
}
