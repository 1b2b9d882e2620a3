// Package httpx is a stand-in for the project's envelope helpers: the
// sanctioned way /v1 handlers write bodies.
package httpx

import "net/http"

func WriteJSON(w http.ResponseWriter, status int, v interface{}) {}

func WriteJSONBody(w http.ResponseWriter, status int, appendDoc func([]byte) ([]byte, error)) error {
	return nil
}

func WriteError(w http.ResponseWriter, status int, code, msg string) {}
