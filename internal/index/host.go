package index

import (
	"net/url"
	"strings"
)

// The host column. A document's host is url.Parse(URL).Host — userinfo
// and path excluded, a port included — or "" when the URL does not
// parse. It is computed once, when the document enters the table, and
// held as an id into a dictionary of host names, so a host-restricted
// scan compares one integer per candidate and Refresh groups documents
// by site without parsing a URL.

// hostOf returns url.Parse(rawURL).Host, or "" when parsing fails.
// The plain shape every surfaced and crawled page has —
// scheme://authority/… with a lower-case scheme, an authority of
// [a-z0-9.-] and no '%' or control byte anywhere — is read in place,
// without allocating; anything else goes to url.Parse.
func hostOf(rawURL string) string {
	if h, ok := plainHost(rawURL); ok {
		return h
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return u.Host
}

// plainHost returns the authority of a URL in the plain shape hostOf
// describes, and false for any other URL. On that shape url.Parse can
// neither fail (no escapes to reject, no control bytes) nor split the
// authority differently (no userinfo, port or IPv6 literal), so the
// authority is its Host.
func plainHost(rawURL string) (string, bool) {
	start, end := plainAuthority(rawURL)
	if start < 0 || !plainTail(rawURL[end:]) {
		return "", false
	}
	return rawURL[start:end], true
}

// plainAuthority returns where the authority of a URL that begins in
// the plain shape — a lower-case scheme, "://", then [a-z0-9.-] up to
// the end or to '/', '?' or '#' — starts and ends, and start -1 for
// any other URL. The rest of the URL is left unread.
func plainAuthority(rawURL string) (start, end int) {
	i := 0
	for i < len(rawURL) && 'a' <= rawURL[i] && rawURL[i] <= 'z' {
		i++
	}
	if i == 0 || !strings.HasPrefix(rawURL[i:], "://") {
		return -1, 0
	}
	start = i + 3
	for end = start; end < len(rawURL); end++ {
		c := rawURL[end]
		if c == '/' || c == '?' || c == '#' {
			break
		}
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '-') {
			return -1, 0
		}
	}
	return start, end
}

// plainTail reports whether tail, what follows a plain authority,
// holds no '%' and no control byte.
func plainTail(tail string) bool {
	for i := 0; i < len(tail); i++ {
		if c := tail[i]; c == '%' || c < ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// internHost returns the id of rawURL's host in the dictionary ids,
// names (a builder's, or one being built for it), interning it on
// first sight; 0 for a URL without one.
func internHost(ids map[string]uint32, names *[]string, rawURL string) uint32 {
	return internName(ids, names, hostOf(rawURL))
}

// internName returns host h's id in ids, names, interning it on first
// sight; 0 for "".
func internName(ids map[string]uint32, names *[]string, h string) uint32 {
	if h == "" {
		return 0
	}
	id, ok := ids[h]
	if !ok {
		// A fast-path host is a substring of the URL: copy it, so the
		// dictionary does not pin the URL it was first seen in.
		h = strings.Clone(h)
		id = uint32(len(*names))
		ids[h] = id
		*names = append(*names, h)
	}
	return id
}

// hostRun interns the hosts of URLs read in table order, assigning the
// ids internHost would one URL at a time. A table holds a site's pages
// side by side, so most URLs repeat the scheme and authority of the
// URL before: a URL that begins with the last plain URL's
// "scheme://authority", followed by its end or by '/', '?' or '#', has
// that URL's host, and costs only plainTail over the rest — no
// authority scan, no map probe.
type hostRun struct {
	ids    map[string]uint32
	names  []string
	prefix string // "scheme://authority" of the last plain URL, "" before one
	id     uint32 // its host's id
}

// intern returns rawURL's host id.
func (r *hostRun) intern(rawURL string) uint32 {
	if r.prefix != "" && strings.HasPrefix(rawURL, r.prefix) {
		rest := rawURL[len(r.prefix):]
		if (rest == "" || rest[0] == '/' || rest[0] == '?' || rest[0] == '#') && plainTail(rest) {
			return r.id
		}
	}
	start, end := plainAuthority(rawURL)
	if start < 0 || !plainTail(rawURL[end:]) {
		return internHost(r.ids, &r.names, rawURL)
	}
	r.prefix, r.id = rawURL[:end], internName(r.ids, &r.names, rawURL[start:end])
	return r.id
}
