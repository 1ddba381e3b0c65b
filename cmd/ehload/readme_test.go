package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"vmshortcut"
)

// checkedBinaries are the commands whose README usage the tests below
// check against their -h output.
var checkedBinaries = []string{"ehserver", "ehload", "ehstore", "shortcutbench"}

var (
	helpOnce sync.Once
	helpText map[string]string
	helpErr  error
)

// binaryHelp builds every checked binary once per test binary and returns
// what each prints for -h.
func binaryHelp(t *testing.T) map[string]string {
	t.Helper()
	helpOnce.Do(func() {
		dir := t.TempDir()
		args := []string{"build", "-o", dir + string(filepath.Separator), "."}
		for _, bin := range checkedBinaries {
			if bin != "ehload" {
				args = append(args, "../"+bin)
			}
		}
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			helpErr = fmt.Errorf("building %v: %v\n%s", checkedBinaries, err, out)
			return
		}
		helpText = map[string]string{}
		for _, bin := range checkedBinaries {
			out, _ := exec.Command(filepath.Join(dir, bin), "-h").CombinedOutput() // only the text matters, not the exit status
			helpText[bin] = string(out)
		}
	})
	if helpErr != nil {
		t.Fatal(helpErr)
	}
	return helpText
}

// flagLine matches one flag of -h output: its name and, for a flag that
// takes a value, the value's type.
var flagLine = regexp.MustCompile(`(?m)^  -([\w-]+)(?: (\S+))?`)

// binaryFlags returns, per checked binary, each flag it defines and
// whether the flag takes a value.
func binaryFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	flags := map[string]map[string]bool{}
	for bin, help := range binaryHelp(t) {
		flags[bin] = map[string]bool{}
		for _, m := range flagLine.FindAllStringSubmatch(help, -1) {
			flags[bin][m[1]] = m[2] != ""
		}
		if len(flags[bin]) == 0 {
			t.Fatalf("%s -h listed no flags:\n%s", bin, help)
		}
	}
	return flags
}

// readmeCommandLines returns the lines inside the README's fenced code
// blocks, with backslash-continued lines joined into one.
func readmeCommandLines(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	var cur strings.Builder
	fenced := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			continue
		}
		if trimmed := strings.TrimRight(line, " "); strings.HasSuffix(trimmed, `\`) {
			cur.WriteString(strings.TrimSuffix(trimmed, `\`) + " ")
			continue
		}
		cur.WriteString(line)
		lines = append(lines, cur.String())
		cur.Reset()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// command is one binary invocation on a README command line: the
// binary's name and the words passed to it.
type command struct {
	bin  string
	args []string
}

var flagToken = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(=.*)?$`)

// commands finds, in one shell command line, every binary invocation. A
// binary is the word in command position: at the start of the line,
// after a shell separator, right after an opening quote (ehload's
// -server-cmd "ehserver ..." style), or the package after "go run". The
// words of a quoted command belong to it, not to the command around it.
// Tokens after a "#" are a comment.
func commands(line string) []command {
	var cmds []command
	stack := []int{-1} // index in cmds of the current (possibly quoted) command
	cmdPos := true
	for _, tok := range strings.Fields(line) {
		if strings.HasPrefix(tok, "#") {
			break
		}
		if strings.HasPrefix(tok, `"`) || strings.HasPrefix(tok, "'") {
			stack = append(stack, -1)
			cmdPos = true
			tok = tok[1:]
		}
		closes := len(stack) > 1 && (strings.HasSuffix(tok, `"`) || strings.HasSuffix(tok, "'"))
		tok = strings.TrimRight(tok, `"'`)
		switch {
		case tok == "&&" || tok == "||" || tok == "|" || tok == ";" || tok == "&":
			stack[len(stack)-1] = -1
			cmdPos = true
		case cmdPos && (tok == "go" || tok == "run"):
			// "go run <package>": the package names the binary
		case cmdPos:
			cmds = append(cmds, command{bin: path.Base(tok)})
			stack[len(stack)-1] = len(cmds) - 1
			cmdPos = false
		default:
			if i := stack[len(stack)-1]; i >= 0 {
				cmds[i].args = append(cmds[i].args, tok)
			}
		}
		if closes {
			stack = stack[:len(stack)-1]
			cmdPos = false
		}
	}
	return cmds
}

// flagRow matches one row of a README "| binary | flag | meaning |" table:
// the binary's name and the flag's.
var flagRow = regexp.MustCompile("(?m)^\\| `([\\w-]+)` \\| `-([\\w-]+)` \\|")

// TestREADMEFlagsExist fails when a README command line or flag table row
// passes a checked binary a flag it does not define — a flag deleted from
// the code but still shown in the documentation.
func TestREADMEFlagsExist(t *testing.T) {
	defined := binaryFlags(t)
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, m := range flagRow.FindAllStringSubmatch(string(readme), -1) {
		flags, ok := defined[m[1]]
		if !ok {
			continue
		}
		rows++
		if _, ok := flags[m[2]]; !ok {
			t.Errorf("README's flag table lists %s -%s, which it does not define", m[1], m[2])
		}
	}
	if rows == 0 {
		t.Fatal("found no README flag table rows to check")
	}
	checked := map[string]int{}
	for _, line := range readmeCommandLines(t) {
		for _, c := range commands(line) {
			flags, ok := defined[c.bin]
			if !ok {
				continue
			}
			for _, arg := range c.args {
				m := flagToken.FindStringSubmatch(arg)
				if m == nil {
					continue
				}
				checked[c.bin]++
				if _, ok := flags[m[1]]; !ok {
					t.Errorf("README runs %s with -%s, which it does not define:\n\t%s", c.bin, m[1], line)
				}
			}
		}
	}
	// The parser must actually be finding the README's command lines.
	for _, bin := range checkedBinaries {
		if checked[bin] == 0 {
			t.Fatalf("found no README flags to check for %s: %v", bin, checked)
		}
	}
}

// kindFlags names, per checked binary, the flag that selects an index kind.
var kindFlags = map[string]string{"ehserver": "kind", "ehstore": "index"}

// TestREADMEKindsParse fails when a README command line selects an index
// kind that vmshortcut.ParseKind rejects — a kind deleted from Open but
// still shown in the documentation.
func TestREADMEKindsParse(t *testing.T) {
	checked := map[string]int{}
	for _, line := range readmeCommandLines(t) {
		for _, c := range commands(line) {
			name, ok := kindFlags[c.bin]
			if !ok {
				continue
			}
			for i, arg := range c.args {
				m := flagToken.FindStringSubmatch(arg)
				if m == nil || m[1] != name {
					continue
				}
				value := strings.TrimPrefix(m[2], "=")
				if m[2] == "" && i+1 < len(c.args) {
					value = c.args[i+1]
				}
				checked[c.bin]++
				if _, err := vmshortcut.ParseKind(value); err != nil {
					t.Errorf("README runs %s -%s %s: %v\n\t%s", c.bin, name, value, err, line)
				}
			}
		}
	}
	for bin, name := range kindFlags {
		if checked[bin] == 0 {
			t.Fatalf("found no README %s -%s to check: %v", bin, name, checked)
		}
	}
}

// experimentsLine is where shortcutbench's -h lists its experiments.
var experimentsLine = regexp.MustCompile(`(?m)^experiments: (.+)$`)

// TestREADMEExperimentsExist fails when a README command line runs
// shortcutbench with an experiment the binary does not accept.
func TestREADMEExperimentsExist(t *testing.T) {
	help := binaryHelp(t)["shortcutbench"]
	m := experimentsLine.FindStringSubmatch(help)
	if m == nil {
		t.Fatalf("shortcutbench -h lists no experiments:\n%s", help)
	}
	accepted := map[string]bool{}
	for _, name := range strings.Fields(m[1]) {
		accepted[name] = true
	}
	takesValue := binaryFlags(t)["shortcutbench"]
	runs := 0
	for _, line := range readmeCommandLines(t) {
		for _, c := range commands(line) {
			if c.bin != "shortcutbench" {
				continue
			}
			for i := 0; i < len(c.args); i++ {
				if f := flagToken.FindStringSubmatch(c.args[i]); f != nil {
					if takesValue[f[1]] && f[2] == "" {
						i++ // the flag's value
					}
					continue
				}
				runs++
				if !accepted[c.args[i]] {
					t.Errorf("README runs shortcutbench %s, which is not one of its experiments (%s):\n\t%s",
						c.args[i], m[1], line)
				}
				break
			}
		}
	}
	if runs == 0 {
		t.Fatal("found no README shortcutbench experiment to check")
	}
}

// TestREADMEMentionsEveryFlag is the converse: it fails when a checked
// binary defines a flag the README never mentions as "-name".
func TestREADMEMentionsEveryFlag(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for bin, flags := range binaryFlags(t) {
		for f := range flags {
			mention := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f) + `($|[^\w-])`)
			if !mention.Match(readme) {
				t.Errorf("%s defines -%s, which the README never mentions", bin, f)
			}
		}
	}
}
