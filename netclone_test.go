package netclone_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"netclone"
)

func TestFacadeExperimentParallelism(t *testing.T) {
	opts := netclone.QuickOptions()
	opts.DurationNS = 4e6
	opts.WarmupNS = 1e6
	opts.LoadFracs = []float64{0.3, 0.7}
	seq := opts
	seq.Parallelism = 1
	par := opts
	par.Parallelism = 8
	rSeq, err := netclone.RunExperiment("fig7a", seq)
	if err != nil {
		t.Fatal(err)
	}
	rPar, err := netclone.RunExperiment("fig7a", par)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := netclone.RenderCSV(&a, rSeq); err != nil {
		t.Fatal(err)
	}
	if err := netclone.RenderCSV(&b, rPar); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("fig7a differs between Parallelism 1 and 8:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestFacadeNoWarmup(t *testing.T) {
	if netclone.NoWarmup >= 0 {
		t.Fatalf("NoWarmup = %d, want negative sentinel", netclone.NoWarmup)
	}
}

func TestFacadeExperiment(t *testing.T) {
	opts := netclone.QuickOptions()
	opts.DurationNS = 5e6
	opts.WarmupNS = 1e6
	opts.LoadFracs = []float64{0.3}
	r, err := netclone.RunExperiment("fig7a", opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netclone.RenderText(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NetClone") {
		t.Errorf("rendered report missing NetClone series:\n%s", buf.String())
	}
	if err := netclone.RenderCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeUnknownExperiment(t *testing.T) {
	if _, err := netclone.RunExperiment("nope", netclone.QuickOptions()); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestFacadeInventory(t *testing.T) {
	if len(netclone.Experiments()) < 20 {
		t.Errorf("only %d experiments registered", len(netclone.Experiments()))
	}
	ids := netclone.ExperimentIDs()
	found := map[string]bool{}
	for _, id := range ids {
		found[id] = true
	}
	for _, want := range []string{"fig7a", "fig16", "table1", "table2", "abl-clonedrop"} {
		if !found[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

func TestFacadeModels(t *testing.T) {
	if netclone.RedisModel().Name != "redis" || netclone.MemcachedModel().Name != "memcached" {
		t.Error("cost model names wrong")
	}
	mix := netclone.NewKVMix(0.9, 0.1, 1000, 0.99)
	if mix == nil {
		t.Fatal("NewKVMix returned nil")
	}
	if netclone.DefaultCalibration().LinkDelayNS <= 0 {
		t.Error("calibration defaults empty")
	}
	if netclone.Bimodal9010(25, 250).Mean() <= netclone.Exp(25).Mean() {
		t.Error("distribution helpers broken")
	}
}

// docs are the top-level documents whose prose the tests below keep
// honest.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// goFuncNames returns the name captured by re in every Go file of the
// tree, the benchmark module included, whose test-ness matches tests.
func goFuncNames(t *testing.T, re *regexp.Regexp, tests bool) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range re.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// docsLineBudget caps README + DESIGN + EXPERIMENTS together. It only
// goes down: a change that adds a user-visible surface pays for its
// paragraph by cutting one elsewhere.
const docsLineBudget = 1437

// TestDocsLineBudget holds the top-level documents at or below
// docsLineBudget lines.
func TestDocsLineBudget(t *testing.T) {
	total := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		total += bytes.Count(text, []byte("\n"))
	}
	if total > docsLineBudget {
		t.Errorf("README + DESIGN + EXPERIMENTS are %d lines, over the budget of %d: cut as many lines as you add", total, docsLineBudget)
	}
}

// TestDocsNameRealTests keeps the prose honest: every backticked
// Test*/Benchmark*/Fuzz* name in the top-level documents (a trailing *
// is a prefix match) is a func in some _test.go of the tree, the
// benchmark module included.
func TestDocsNameRealTests(t *testing.T) {
	funcs := goFuncNames(t, regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`), true)
	nameRE := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*)(\\*?)`")
	checked := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range nameRE.FindAllSubmatch(text, -1) {
			name, prefix := string(m[1]), len(m[2]) > 0
			checked++
			if !slices.ContainsFunc(funcs, func(f string) bool {
				return f == name || prefix && strings.HasPrefix(f, name)
			}) {
				t.Errorf("%s names `%s%s`, which no _test.go defines", doc, name, m[2])
			}
		}
	}
	if checked == 0 {
		t.Error("no test names found in the documents: the pattern has rotted")
	}
}

// TestDocsNameRealOptions: every backticked With* option the top-level
// documents name — bare, package-qualified, or as the head of a call —
// is an exported func or method declared in non-test Go, so the docs
// cannot teach an option that was deleted.
func TestDocsNameRealOptions(t *testing.T) {
	decls := goFuncNames(t, regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?(With[A-Z]\w*)\(`), false)
	nameRE := regexp.MustCompile("`(?:\\w+\\.)?(With[A-Z]\\w*)")
	checked := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range nameRE.FindAllSubmatch(text, -1) {
			checked++
			if name := string(m[1]); !slices.Contains(decls, name) {
				t.Errorf("%s names `%s`, which no non-test Go declares", doc, name)
			}
		}
	}
	if checked == 0 {
		t.Error("no option names found in the documents: the pattern has rotted")
	}
}

// goToolFlags are the go command's own flags that the documents name in
// `go test` lines; no main.go of this tree declares them.
var goToolFlags = []string{"-race", "-count", "-bench", "-benchmem", "-benchtime"}

// TestDocsNameRealFlagsAndScripts: every -flag inside a code span or
// fenced block of the top-level documents is declared by a flag.* or
// fs.* (flag set) call in a cmd/*/main.go or benchmark/main.go, or is a
// go toolchain flag; every scripts/ path there exists. The docs cannot
// teach a deleted flag or script.
func TestDocsNameRealFlagsAndScripts(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	declRE := regexp.MustCompile(`(?:flag|fs)\.[A-Z]\w*\((?:&?[\w.]+,\s*)?"([\w-]+)"`)
	declared := slices.Clone(goToolFlags)
	for _, path := range append(mains, filepath.Join("benchmark", "main.go")) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range declRE.FindAllSubmatch(src, -1) {
			declared = append(declared, "-"+string(m[1]))
		}
	}
	fenceRE := regexp.MustCompile("(?s)```[^\n]*\n(.*?)```")
	inlineRE := regexp.MustCompile("`([^`\n]+)`")
	flagRE := regexp.MustCompile(`(?m)(?:^|[\s(])(-[a-z][\w-]*)`)
	scriptRE := regexp.MustCompile(`\bscripts/[\w.-]+`)
	flags, scripts := 0, 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var spans [][]byte
		for _, m := range fenceRE.FindAllSubmatch(text, -1) {
			spans = append(spans, m[1])
		}
		for _, m := range inlineRE.FindAllSubmatch(fenceRE.ReplaceAll(text, nil), -1) {
			spans = append(spans, m[1])
		}
		for _, span := range spans {
			for _, m := range flagRE.FindAllSubmatch(span, -1) {
				flags++
				if name := string(m[1]); !slices.Contains(declared, name) {
					t.Errorf("%s names `%s`, which no cmd/*/main.go or benchmark/main.go declares", doc, name)
				}
			}
			for _, path := range scriptRE.FindAll(span, -1) {
				scripts++
				if _, err := os.Stat(string(path)); err != nil {
					t.Errorf("%s names `%s`: %v", doc, path, err)
				}
			}
		}
	}
	if flags == 0 || scripts == 0 {
		t.Errorf("found %d flags and %d script paths in the documents: a pattern has rotted", flags, scripts)
	}
}

// TestRunListsNameRealTests: every Test name in a `-run` list of the CI
// workflow and in every mutant patch's Tests: header is a func in some
// _test.go of the tree. `go test -run` quietly runs fewer tests when a
// listed name is stale, so a renamed test would drop out of CI's race
// steps, and a mutant would be judged by fewer tests than it names.
func TestRunListsNameRealTests(t *testing.T) {
	funcs := goFuncNames(t, regexp.MustCompile(`(?m)^func (Test\w*)\(`), true)
	lists := map[string][]string{} // file -> its -run lists
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`-run '([^']*)'`).FindAllSubmatch(ci, -1) {
		lists["ci.yml"] = append(lists["ci.yml"], string(m[1]))
	}
	patches, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.patch"))
	if err != nil {
		t.Fatal(err)
	}
	testsRE := regexp.MustCompile(`(?m)^Tests: (.*)$`)
	for _, path := range patches {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if m := testsRE.FindSubmatch(src); m != nil {
			lists[path] = append(lists[path], string(m[1]))
		} else {
			t.Errorf("%s has no Tests: header", path)
		}
	}
	seen := map[string]bool{}
	for file, runs := range lists {
		for _, run := range runs {
			for _, name := range strings.Split(run, "|") {
				if !strings.HasPrefix(name, "Test") {
					continue // '^$' and other patterns that name no test
				}
				seen[name] = true
				if !slices.Contains(funcs, name) {
					t.Errorf("%s runs %s, which no _test.go defines", file, name)
				}
			}
		}
	}
	if len(seen) == 0 || len(patches) == 0 {
		t.Errorf("found %d test names in %d patches and ci.yml: a pattern has rotted", len(seen), len(patches))
	}
	t.Logf("%d distinct test names checked", len(seen))
}
