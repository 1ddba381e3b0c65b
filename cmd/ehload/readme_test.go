package main

import (
	"bufio"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// definedFlags runs bin -h and returns the names of the flags it lists.
func definedFlags(t *testing.T, bin string) map[string]bool {
	t.Helper()
	out, _ := exec.Command(bin, "-h").CombinedOutput() // only the flag list matters, not the exit status
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(string(out), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h listed no flags:\n%s", bin, out)
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

// flagUse is one "-name" a command line passes to a binary.
type flagUse struct{ bin, flag string }

var flagToken = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(=.*)?$`)

// flagUses finds, in one shell command line, every flag token and the
// binary it is passed to. A binary is the word in command position: at
// the start of the line, after a shell separator, right after an opening
// quote (ehload's -server-cmd "ehserver ..." style), or the package
// after "go run". Tokens after a "#" are a comment.
func flagUses(line string) []flagUse {
	var uses []flagUse
	stack := []string{""} // binary of the current (possibly quoted) command
	cmdPos := true
	for _, tok := range strings.Fields(line) {
		if strings.HasPrefix(tok, "#") {
			break
		}
		if strings.HasPrefix(tok, `"`) || strings.HasPrefix(tok, "'") {
			stack = append(stack, "")
			cmdPos = true
			tok = tok[1:]
		}
		closes := len(stack) > 1 && (strings.HasSuffix(tok, `"`) || strings.HasSuffix(tok, "'"))
		tok = strings.TrimRight(tok, `"'`)
		switch {
		case tok == "&&" || tok == "||" || tok == "|" || tok == ";" || tok == "&":
			stack[len(stack)-1] = ""
			cmdPos = true
		case cmdPos && (tok == "go" || tok == "run"):
			// "go run <package>": the package names the binary
		case cmdPos:
			stack[len(stack)-1] = path.Base(tok)
			cmdPos = false
		default:
			bin := stack[len(stack)-1]
			if m := flagToken.FindStringSubmatch(tok); m != nil && (bin == "ehserver" || bin == "ehload") {
				uses = append(uses, flagUse{bin, m[1]})
			}
		}
		if closes {
			stack = stack[:len(stack)-1]
			cmdPos = false
		}
	}
	return uses
}

// TestREADMEFlagsExist fails when a README command line passes ehserver
// or ehload a flag the binary does not define — a flag deleted from the
// code but still shown in the documentation.
func TestREADMEFlagsExist(t *testing.T) {
	server := filepath.Join(t.TempDir(), "ehserver")
	if out, err := exec.Command("go", "build", "-o", server, "../ehserver").CombinedOutput(); err != nil {
		t.Fatalf("building ehserver: %v\n%s", err, out)
	}
	defined := map[string]map[string]bool{
		"ehserver": definedFlags(t, server),
		"ehload":   definedFlags(t, buildEhload(t)),
	}
	checked := map[string]int{}
	for _, line := range readmeCommandLines(t) {
		for _, u := range flagUses(line) {
			checked[u.bin]++
			if !defined[u.bin][u.flag] {
				t.Errorf("README runs %s with -%s, which it does not define:\n\t%s", u.bin, u.flag, line)
			}
		}
	}
	// The parser must actually be finding the README's command lines.
	if checked["ehserver"] == 0 || checked["ehload"] == 0 {
		t.Fatalf("found no README flags to check: %v", checked)
	}
}
