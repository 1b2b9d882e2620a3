package index

import (
	"fmt"
	"net/url"
	"testing"
)

// refHost is the definition the host column implements.
func refHost(u string) string {
	p, err := url.Parse(u)
	if err != nil {
		return ""
	}
	return p.Host
}

// The column's extractor is url.Parse's Host on every string, not only
// on the shapes its fast path reads.
func FuzzHostOf(f *testing.F) {
	for _, u := range []string{
		"http://h.example/doc/0001",
		"http://u@h.example/p",
		"http://u:pw@h.example:8080/p",
		"http://h.example:8080/p",
		"http://[::1]/p",
		"http://[::1]:80/p",
		"HTTP://H.EXAMPLE/P",
		"http://H.example/p",
		"http://h.example/%zz",
		"http://h.example/%41",
		"http://h.example/p#%zz",
		"http://h%41.example/p",
		"http://h.example/\x01",
		"http://h.example/p#\x01",
		"http://h.example/\x7f",
		"h.example/p",
		"//h.example/p",
		"http:///x",
		"http://",
		"http://h.example?",
		"http://h.example#",
		"http://h.example?q=1/x",
		"http://h.example/p?",
		"http://h ex/p",
		"1http://h.example/",
		"",
	} {
		f.Add(u)
	}
	f.Fuzz(func(t *testing.T, u string) {
		if got, want := hostOf(u), refHost(u); got != want {
			t.Fatalf("hostOf(%q) = %q, url.Parse says %q", u, got, want)
		}
	})
}

// The column stays parallel to the document table through every path
// that writes it: batch commits, Delete, Compact's renumbering and a
// snapshot-style export and import.
func TestHostColumnFollowsDocs(t *testing.T) {
	ix := NewSharded(4)
	for i := 0; i < 90; i++ {
		u := fmt.Sprintf("http://h%d.example/doc/%02d", i%4, (i*37)%90) // URL order != id order
		switch i % 5 {
		case 1:
			u = fmt.Sprintf("http://u@h%d.example:80%d/doc/%02d", i%4, i%2, i)
		case 2:
			u = fmt.Sprintf("http://h%d.example/bad/%%zz%02d", i%4, i)
		}
		ix.Add(Doc{URL: u, Text: "ford focus"})
	}
	for id := 0; id < 90; id += 7 {
		ix.Delete(id)
	}
	check := func(when string, ix *Index) {
		t.Helper()
		seen := 0
		ix.ForEachLive(func(_ int, d Doc, host string) {
			seen++
			if want := refHost(d.URL); host != want {
				t.Fatalf("%s: %s has host %q in the column, want %q", when, d.URL, host, want)
			}
		})
		if seen == 0 {
			t.Fatalf("%s: no live documents", when)
		}
	}
	check("after delete", ix)
	docs, lens, dead := ix.ExportDocs()
	loaded := NewSharded(4)
	if err := loaded.ImportDocs(docs, lens, dead); err != nil {
		t.Fatal(err)
	}
	check("after import", loaded)
	ix.Compact()
	check("after compact", ix)
}
