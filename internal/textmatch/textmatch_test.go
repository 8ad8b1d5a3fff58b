package textmatch

import (
	"strings"
	"testing"
)

// checkScan scans text with a Matcher over patterns and requires every
// hit to equal the pattern's strings.Contains answer.
func checkScan(t *testing.T, patterns []string, text string) {
	t.Helper()
	hit := make([]bool, len(patterns))
	New(patterns).Scan(text, hit)
	for p, pat := range patterns {
		if want := pat != "" && strings.Contains(text, pat); hit[p] != want {
			t.Fatalf("patterns %q, text %q: hit[%d] (%q) = %t, want %t", patterns, text, p, pat, hit[p], want)
		}
	}
}

func TestScan(t *testing.T) {
	for _, c := range []struct {
		patterns []string
		texts    []string
	}{
		// The textbook set: failure links and outputs through them.
		{[]string{"he", "she", "his", "hers"}, []string{"ushers", "ahishers", "h", "", "sh"}},
		// Empty, duplicate, prefix and suffix patterns.
		{[]string{"", "a", "a", "ab", "b", "abc", "bc", "c", ""}, []string{"abc", "xbcx", "aaa", "ca"}},
		// A pattern only reachable after a failure mid-match.
		{[]string{"abcd", "bce", "cef"}, []string{"abcef", "abcd", "abce"}},
		// Bytes ≥ 0x80 and invalid UTF-8.
		{[]string{"caf\xc3\xa9", "\xff", "\xc3", "\xa9 \xff"}, []string{"caf\xc3\xa9 \xff", "\xc3(", "cafe"}},
		// No patterns at all.
		{nil, []string{"anything"}},
	} {
		for _, text := range c.texts {
			checkScan(t, c.patterns, text)
		}
	}
}

// TestScanLeavesOtherHits checks that Scan only ever sets entries.
func TestScanLeavesOtherHits(t *testing.T) {
	hit := []bool{true, false}
	New([]string{"x", "y"}).Scan("y", hit)
	if !hit[0] || !hit[1] {
		t.Fatalf("hit = %v, want [true true]", hit)
	}
}

func TestNewLimits(t *testing.T) {
	New([]string{strings.Repeat("a", maxStates-1)}) // the largest that fits
	for name, patterns := range map[string][]string{
		"bytes":    {strings.Repeat("a", maxStates)},
		"patterns": make([]string, maxStates),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic past its 16-bit limit", name)
				}
			}()
			New(patterns)
		}()
	}
}

// FuzzMatcher checks Scan against strings.Contains. The pattern set is
// the first input split at NUL bytes, so it holds empty patterns and
// duplicates at will; each pattern's two halves and pieces of the text
// join it, so it also holds patterns that are prefixes and suffixes of
// one another and patterns that occur in the text.
func FuzzMatcher(f *testing.F) {
	for _, seed := range []struct{ set, text string }{
		{"he\x00she\x00his\x00hers", "ushers"},
		{"\x00a\x00a\x00ab\x00b\x00\x00", "xaby"},
		{"abcd\x00bce\x00cef", "abcef"},
		{"caf\xc3\xa9\x00\xff\xfe\x00\xc3", "caf\xc3\xa9 \xff\xfe\x80"},
		{"europe\x00asia\x00country level\x00%\x00probability\x00ago", "a 10% failure probability between europe and asia, three days ago"},
		{"", ""},
	} {
		f.Add([]byte(seed.set), seed.text)
	}
	f.Fuzz(func(t *testing.T, set []byte, text string) {
		if len(set) > 4096 || len(text) > 4096 {
			t.Skip("inputs beyond 4 KiB add nothing but time")
		}
		patterns := strings.Split(string(set), "\x00")
		for _, p := range patterns {
			patterns = append(patterns, p[:len(p)/2], p[len(p)/2:])
		}
		third := len(text) / 3
		patterns = append(patterns, text[:third], text[third:2*third], text[2*third:], text)
		checkScan(t, patterns, text)
	})
}
