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
	i := 0
	for i < len(rawURL) && 'a' <= rawURL[i] && rawURL[i] <= 'z' {
		i++
	}
	if i == 0 || !strings.HasPrefix(rawURL[i:], "://") {
		return "", false
	}
	start := i + 3
	end := start
	for ; end < len(rawURL); end++ {
		c := rawURL[end]
		if c == '/' || c == '?' || c == '#' {
			break
		}
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '-') {
			return "", false
		}
	}
	for j := end; j < len(rawURL); j++ {
		if c := rawURL[j]; c == '%' || c < ' ' || c == 0x7f {
			return "", false
		}
	}
	return rawURL[start:end], true
}

// hostIDLocked returns the dictionary id of rawURL's host, interning
// it on first sight; 0 for a URL without one. The caller holds the
// write lock.
func (ix *Index) hostIDLocked(rawURL string) uint32 {
	h := hostOf(rawURL)
	if h == "" {
		return 0
	}
	id, ok := ix.hostIDs[h]
	if !ok {
		// A fast-path host is a substring of the URL: copy it, so the
		// dictionary does not pin the URL it was first seen in.
		h = strings.Clone(h)
		id = uint32(len(ix.hostNames))
		ix.hostIDs[h] = id
		ix.hostNames = append(ix.hostNames, h)
	}
	return id
}
