// Package api exercises envelope inside a scoped handler package.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"httpx"
)

func handler(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "bad request", 400)           // want `use httpx\.WriteError`
	fmt.Fprintf(w, "oops: %d", 400)             // want `fmt\.Fprintf writes an unenveloped body`
	fmt.Fprint(w, "oops")                       // want `fmt\.Fprint writes an unenveloped body`
	fmt.Fprintln(w, "oops")                     // want `fmt\.Fprintln writes an unenveloped body`
	io.WriteString(w, "oops")                   // want `io\.WriteString writes an unenveloped body`
	json.NewEncoder(w).Encode(map[string]int{}) // want `use httpx\.WriteJSON`
	w.Write([]byte("raw"))                      // want `ResponseWriter\.Write bypasses the envelope`
	w.WriteHeader(204)                          // want `ResponseWriter\.WriteHeader bypasses the envelope`
}

func clean(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Cache", "HIT") // ok: headers are part of the contract
	httpx.WriteJSON(w, 200, map[string]int{"n": 1})
	httpx.WriteError(w, 404, "not_found", "no such document")
	httpx.WriteJSONBody(w, 200, func(b []byte) ([]byte, error) { return append(b, "{}\n"...), nil })

	var buf bytes.Buffer
	buf.Write([]byte("scratch"))       // ok: not a ResponseWriter
	fmt.Fprintf(&buf, "scratch %d", 1) // ok: not a ResponseWriter
	json.NewEncoder(&buf).Encode("x")  // ok: not a ResponseWriter
	io.WriteString(io.Discard, "x")    // ok: not a ResponseWriter
}

func suppressed(w http.ResponseWriter) {
	//deepvet:allow envelope -- golden test for the suppression path
	w.WriteHeader(204)
}
