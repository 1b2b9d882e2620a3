package index

import (
	"fmt"
	"net/url"
	"slices"
	"strings"
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

// A table read by ScanRows takes a URL's host from the URL before when
// it repeats that URL's "scheme://authority": the host column it
// installs must still be url.Parse's Host for every document, and its
// ids those internHost assigns one URL at a time. The fuzzed list is
// split at newlines; each seed is a URL after a neighbour that shares
// its prefix but not, or not provably, its host.
func FuzzRowHosts(f *testing.F) {
	for _, u := range []string{
		"http://a.example.org/",
		"http://a.example:80/",
		"http://a.example",
		"http://a.example?q",
		"http://a.example#f",
		"http://a.example/%zz",
		"http://a.example/\x01",
		"HTTP://a.example/",
		"http://u@a.example/",
	} {
		f.Add("http://a.example/x\n" + u + "\nhttp://a.example/y")
	}
	f.Add("http://a.example/x\nhttp://b.example/x\nhttp://a.example/y\nhttp:///z\nhttp:///w\nhttp://\n\nh/x")
	f.Fuzz(func(t *testing.T, list string) {
		var urls []string
		for _, u := range strings.Split(list, "\n") {
			if !slices.Contains(urls, u) { // ScanRows refuses a duplicate
				urls = append(urls, u)
			}
		}
		var body []byte
		for _, u := range urls {
			body = AppendRow(body, Doc{URL: u}, 1)
		}
		rows, err := ScanRows(string(body), 0, len(urls))
		if err != nil {
			t.Fatal(err)
		}
		ix := NewSharded(1)
		if err := ix.ImportRows(rows); err != nil {
			t.Fatal(err)
		}
		ix.ForEach(func(id int, d Doc, host string) {
			if want := refHost(d.URL); host != want {
				t.Fatalf("doc %d %q: host %q in the column, url.Parse says %q", id, d.URL, host, want)
			}
		})
		ids, names := map[string]uint32{}, []string{""}
		for id, u := range urls {
			if got, want := ix.hosts[id], internHost(ids, &names, u); got != want {
				t.Fatalf("doc %d %q: host id %d, internHost assigns %d", id, u, got, want)
			}
		}
		if !slices.Equal(ix.hostNames, names) {
			t.Fatalf("host dictionary %q, internHost builds %q", ix.hostNames, names)
		}
	})
}

// The column stays parallel to the document table through both paths
// that write it: batch commits and a snapshot-style export and import.
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
	check := func(when string, ix *Index) {
		t.Helper()
		seen := 0
		ix.ForEach(func(_ int, d Doc, host string) {
			seen++
			if want := refHost(d.URL); host != want {
				t.Fatalf("%s: %s has host %q in the column, want %q", when, d.URL, host, want)
			}
		})
		if seen == 0 {
			t.Fatalf("%s: no documents", when)
		}
	}
	check("after commits", ix)
	docs, lens := exportDocs(ix)
	loaded := NewSharded(4)
	if err := loaded.ImportDocs(docs, lens, nil); err != nil {
		t.Fatal(err)
	}
	check("after import", loaded)
}
