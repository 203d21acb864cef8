// Package qerr defines the typed sentinel errors of the query surface.
// Every error the declarative query API (engine.Run and the HTTP server
// built on it) returns wraps exactly one of these sentinels, so callers
// classify failures with errors.Is instead of matching message strings,
// and the serving tier maps them to HTTP status codes mechanically (Status).
package qerr

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

var (
	// ErrUnknownMeasure marks a measure name or value outside the seven
	// the engine serves (euclidean, uma, uema, dtw, dust, proud, munich).
	ErrUnknownMeasure = errors.New("unknown measure")
	// ErrBadRequest marks a structurally invalid request: missing target,
	// k < 1, tau outside the measure's domain, a query kind the measure
	// does not serve, and so on. The wrapped message names the field.
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound marks a stable series ID that no resident series carries:
	// a query's target, a deletion, a shard's series fetch. Its text is the
	// stem of the message; wrap it as fmt.Errorf("%w %d", ErrNotFound, id).
	ErrNotFound = errors.New("no series with ID")
	// ErrLengthMismatch marks an ad-hoc query series whose geometry does
	// not match the corpus (values, error model or sample model length).
	ErrLengthMismatch = errors.New("length mismatch")
	// ErrCancelled marks a query stopped by its context — cancellation or
	// deadline — before completing. Errors carrying it also carry the
	// context's own error, so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) keep working.
	ErrCancelled = errors.New("query cancelled")
	// ErrShardUnreachable marks a cluster shard that could not be reached
	// at all — connection refused, reset mid-stream, or a malformed shard
	// response. The coordinator maps it to 502 Bad Gateway; a degraded
	// response carries it in the per-shard error detail.
	ErrShardUnreachable = errors.New("shard unreachable")
	// ErrShardTimeout marks a cluster shard that was reachable but did not
	// answer within the coordinator's per-shard deadline. The coordinator
	// maps it to 504 Gateway Timeout — distinct from ErrShardUnreachable so
	// operators can tell a dead shard from a slow one.
	ErrShardTimeout = errors.New("shard timeout")
)

// ShardUnreachablef builds a shard-connectivity error wrapping
// ErrShardUnreachable.
func ShardUnreachablef(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrShardUnreachable, fmt.Sprintf(format, args...))
}

// ShardTimeoutf builds a shard-deadline error wrapping ErrShardTimeout.
func ShardTimeoutf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrShardTimeout, fmt.Sprintf(format, args...))
}

// BadRequestf builds a field-specific validation error wrapping
// ErrBadRequest.
func BadRequestf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// LengthMismatchf builds a field-specific geometry error wrapping
// ErrLengthMismatch.
func LengthMismatchf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrLengthMismatch, fmt.Sprintf(format, args...))
}

// Cancelled wraps a context's error so the result matches both
// ErrCancelled and the context error (Canceled or DeadlineExceeded) under
// errors.Is. A nil cause (a cancellation detected by a kernel whose
// context has not resolved yet) falls back to context.Canceled.
func Cancelled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%w: %w", ErrCancelled, cause)
}

// Status maps err to the HTTP status the serving tier answers it with: an
// unknown ID 404, an expired deadline 504 (a slow shard's too), the client
// gone 499 (the nginx convention: nobody reads the answer), an unreachable
// shard 502, and everything else, validation, 400.
func Status(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrShardUnreachable):
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrShardTimeout):
		return http.StatusGatewayTimeout
	case IsCancellation(err):
		return 499
	default:
		return http.StatusBadRequest
	}
}

// IsCancellation reports whether err stems from context cancellation or an
// expired deadline, whichever layer reported it first.
func IsCancellation(err error) bool {
	return errors.Is(err, ErrCancelled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
