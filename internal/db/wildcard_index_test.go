package db

import (
	"sort"
	"strings"
	"testing"

	"moira/internal/wildcard"
)

func TestWildcardRange(t *testing.T) {
	cases := []struct {
		pattern, lo, hi string
	}{
		{"", "", ""},           // empty prefix: unbounded (full scan)
		{"*", "", ""},          // unbounded
		{"?", "", ""},          // leading wildcard: unbounded
		{"abc", "abc", "abd"},  // exact: one-prefix window
		{"abc*", "abc", "abd"}, // trailing star
		{"abc?", "abc", "abd"}, // trailing any-one
		{"a*z", "a", "b"},      // star mid-pattern: prefix "a"
		{"a?c", "a", "b"},      // ? mid-pattern
		{"*abc", "", ""},       // leading star
		{"z\xffq*", "z\xffq", "z\xffr"},
		{"\xff*", "\xff", ""}, // all-0xff prefix: open upper bound
		{"\xff\xff", "\xff\xff", ""},
	}
	for _, c := range cases {
		lo, hi := WildcardRange(c.pattern)
		if lo != c.lo || hi != c.hi {
			t.Errorf("WildcardRange(%q) = (%q, %q), want (%q, %q)", c.pattern, lo, hi, c.lo, c.hi)
		}
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct{ in, out string }{
		{"", ""},
		{"a", "b"},
		{"az", "a{"},
		{"a\xff", "b"},
		{"\xff", ""},
		{"\xff\xff\xff", ""},
		{"ab\xff\xff", "ac"},
	}
	for _, c := range cases {
		if got := prefixSuccessor(c.in); got != c.out {
			t.Errorf("prefixSuccessor(%q) = %q, want %q", c.in, got, c.out)
		}
	}
}

// FuzzWildcardIndex cross-checks the wildcard-pattern → index-range
// planner against the wildcard matcher itself: for any pattern and any
// name set, the planned range scan must select exactly the names that
// wildcard.Match accepts — no false hits (scanRange is post-filtered,
// so this is really: no misses — a matching name outside [lo,hi) would
// silently vanish from query results).
func FuzzWildcardIndex(f *testing.F) {
	f.Add("abc*", "abc", "abd", "ab", "abcz", "zzz")
	f.Add("*", "", "a", "\xff", "mid", "??")
	f.Add("a?c", "abc", "aXc", "ac", "abbc", "a\xffc")
	f.Add("", "", "a", "b", "", "x")
	f.Add("\xff*", "\xff", "\xfe", "\xff\xff", "a", "")
	f.Add("q\xffz*", "q\xffz1", "q\xffy", "r", "q", "q\xffz")
	f.Fuzz(func(t *testing.T, pattern, n1, n2, n3, n4, n5 string) {
		names := []string{n1, n2, n3, n4, n5}
		sort.Strings(names)
		// Dedup: index name sets are unique by construction.
		uniq := names[:0]
		for i, n := range names {
			if i == 0 || names[i-1] != n {
				uniq = append(uniq, n)
			}
		}

		var got []string
		matchNames(uniq, pattern, func(n string) bool {
			got = append(got, n)
			return true
		})
		var want []string
		for _, n := range uniq {
			if wildcard.Match(pattern, n) {
				want = append(want, n)
			}
		}
		if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
			t.Fatalf("matchNames(%q, %q) = %q, brute force says %q", uniq, pattern, got, want)
		}

		// Range-planner soundness on its own: every matching name must
		// fall inside [lo, hi).
		lo, hi := WildcardRange(pattern)
		for _, n := range uniq {
			if wildcard.Match(pattern, n) && (n < lo || (hi != "" && n >= hi)) {
				t.Fatalf("name %q matches %q but is outside planned range [%q, %q)", n, pattern, lo, hi)
			}
		}
	})
}
