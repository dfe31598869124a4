package config

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// tomlEscaper renders a value as the body of a basic string: the
// inverse of parseBasicString's escapes.
var tomlEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\t", `\t`, "\n", `\n`)

// renderTOML writes a parsed document back in the subset parseTOML
// reads: one table per section, every value a basic string.
func renderTOML(doc map[string]map[string]string) string {
	var b strings.Builder
	for _, section := range slices.Sorted(maps.Keys(doc)) {
		fmt.Fprintf(&b, "[%s]\n", section)
		for _, key := range slices.Sorted(maps.Keys(doc[section])) {
			fmt.Fprintf(&b, "%s = \"%s\"\n", key, tomlEscaper.Replace(doc[section][key]))
		}
	}
	return b.String()
}

// FuzzParseTOML: on any input the parser does not panic, and every
// document it accepts, rendered back to the subset, parses to the same
// section → key → value map. The seeds are the committed corpus under
// testdata/fuzz: the shipped example config, then strings whose quotes,
// escapes and comments the parser must split where TOML does.
func FuzzParseTOML(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := parseTOML(src)
		if err != nil {
			return
		}
		out := renderTOML(doc)
		back, err := parseTOML(out)
		if err != nil {
			t.Fatalf("parseTOML(%q) accepted; its rendering %q does not parse: %v", src, out, err)
		}
		if !reflect.DeepEqual(back, doc) {
			t.Fatalf("parseTOML(%q) = %q; its rendering %q parses to %q", src, doc, out, back)
		}
	})
}
