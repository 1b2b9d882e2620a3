package htmlx

import (
	"net/url"
	"testing"
)

// FuzzHTMLParse feeds arbitrary input through every entry point the
// crawler, the surfacer and the table extractor call on a fetched page:
// Tokenize, Parse, VisibleText and the three extractors must not panic,
// and UnescapeEntities undoes EscapeText on any string.
func FuzzHTMLParse(f *testing.F) {
	for _, seed := range []string{
		"",
		`<form action="/s" method=GET id=f><label>Make <select name=make><option value=ford selected>Ford<option>Honda</select></label><input name=zip type=text><textarea name=notes>x</textarea><input type=submit></form>`,
		`<table><tr><th>make</th><th>price</th></tr><tr><td>ford<td>3800</tr><tr><td>only one</table>`,
		`<a href="/next?page=2">next</a><a href="http://other.example/x#y">x</a><a href="javascript:void(0)"><a href=%zz>`,
		`<script>if (a < b) document.write("<p>")</script><style>p{}</style><p>fish &amp; chips &lt;3 &nbsp;&#39;&apos;&quot;`,
		`<!DOCTYPE html><!-- never closed <p>`,
		"<p title='never closed>\xff\xfe</p></div></td></tr></table>",
		`<<>><a <b c="d" e=f g/><br/></>`,
	} {
		f.Add(seed)
	}
	base, err := url.Parse("http://site.example/dir/page")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, s string) {
		Tokenize(s)
		doc := Parse(s)
		VisibleText(doc)
		ExtractForms(doc)
		ExtractLinks(doc, base)
		ExtractTables(doc)
		if got := UnescapeEntities(EscapeText(s)); got != s {
			t.Fatalf("UnescapeEntities(EscapeText(%q)) = %q", s, got)
		}
	})
}
