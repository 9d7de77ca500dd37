package main

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"warplda/internal/registry"
)

// The /v1 error contract: every non-2xx response carries one JSON
// envelope, {"error":{"code","message","retry_after_ms?"}}. The code is
// a stable machine-readable label (clients branch on it; the message is
// for humans and may change); retry_after_ms mirrors the Retry-After
// header on retryable 503s. The full code list is part of docs/API.md.
const (
	codeBadRequest       = "bad_request"        // 400: malformed body, params, cursor, deadline header
	codeNotFound         = "not_found"          // 404: unknown model, version, or route resource
	codeMethodNotAllowed = "method_not_allowed" // 405: wrong method on a known route
	codePayloadTooLarge  = "payload_too_large"  // 413: body or batch over the configured limits
	codeModelLoading     = "model_loading"      // 503: model is mid-load, retry shortly
	codeOverCapacity     = "over_capacity"      // 503: memory budget refuses another resident model
	codeQueueFull        = "queue_full"         // 503: admission queue full, no deadline to wait under
	codeDeadlineExceeded = "deadline_exceeded"  // 503: deadline passed before the work ran
	codeDraining         = "draining"           // 503: instance is shutting down
	codeInternal         = "internal"           // 500: server-side failure (corrupt model file, ...)
)

// apiError is the envelope body.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs, when set, tells the client how long to back off; it
	// mirrors the Retry-After header (which HTTP rounds to seconds).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

type errorEnvelope struct {
	Error apiError `json:"error"`
}

// writeError writes the uniform error envelope. retryAfter > 0 marks a
// retryable condition: it sets the Retry-After header (ceiling seconds,
// per HTTP) and the envelope's exact retry_after_ms.
func writeError(w http.ResponseWriter, status int, code string, retryAfter time.Duration, format string, args ...any) {
	e := apiError{Code: code, Message: fmt.Sprintf(format, args...)}
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		e.RetryAfterMs = retryAfter.Milliseconds()
	}
	writeJSON(w, status, errorEnvelope{Error: e})
}

// writeRegistryError maps a registry lifecycle error onto the HTTP
// admission-control contract: 404 for names that don't exist, 503 +
// Retry-After for transient refusals (mid-load, over budget, draining),
// 500 for server-side breakage.
func (s *Server) writeRegistryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrNotFound) || errors.Is(err, registry.ErrBadName):
		writeError(w, http.StatusNotFound, codeNotFound, 0, "%v", err)
	case errors.Is(err, registry.ErrLoading):
		writeError(w, http.StatusServiceUnavailable, codeModelLoading, time.Second, "%v", err)
	case errors.Is(err, registry.ErrOverCapacity):
		writeError(w, http.StatusServiceUnavailable, codeOverCapacity, 5*time.Second, "%v", err)
	case errors.Is(err, registry.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, codeDraining, 0, "server is shutting down")
	default:
		// Unreadable/corrupt model file: the caller named a real model,
		// the server side is broken.
		writeError(w, http.StatusInternalServerError, codeInternal, 0, "%v", err)
	}
}
