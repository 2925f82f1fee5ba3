package server

import (
	"errors"
	"fmt"
	"net/http"

	"stellar/internal/pool"
	"stellar/internal/workload"
)

// Machine-readable error codes carried by every non-2xx /v1 response. The
// code is the contract — messages are for humans and may change wording;
// clients branch on Code (README documents the table).
const (
	CodeBadRequest        = "bad_request"         // malformed body or out-of-range field
	CodeUnknownWorkload   = "unknown_workload"    // workload name not in the catalog
	CodeUnknownParameter  = "unknown_parameter"   // config/grid/space names no registry entry
	CodeReadOnlyParameter = "read_only_parameter" // parameter exists but cannot be set
	CodeInvalidFaultPlan  = "invalid_fault_plan"  // fault plan fails validation
	CodeQueueFull         = "queue_full"          // backlog or tenant quota exhausted (429, Retry-After)
	CodeShuttingDown      = "shutting_down"       // queue closed; retrying this process is futile (503)
	CodeCancelled         = "cancelled"           // the caller's own context died
	CodeNotFound          = "not_found"           // no such job/experiment/endpoint
	CodeKeyMismatch       = "key_mismatch"        // fleet nodes disagree on a RunSpec key (409)
	CodeInternal          = "internal"            // unexpected failure executing the request
)

// ErrorBody is the structured error envelope: {"error": {"code", "message",
// "details"}}. Details carries optional machine-readable context (limits,
// offending names) keyed per code.
type ErrorBody struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// writeError writes the error envelope. Every 429 carries Retry-After: the
// queue is a fast consumer, so "soon" is honest and clients with naive
// retry loops get paced instead of hammering a saturated node.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeErrorBody(w, status, ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)})
}

// writeErrorDetails is writeError with a details map attached.
func writeErrorDetails(w http.ResponseWriter, status int, code string, details map[string]any, format string, args ...any) {
	writeErrorBody(w, status, ErrorBody{Code: code, Message: fmt.Sprintf(format, args...), Details: details})
}

func writeErrorBody(w http.ResponseWriter, status int, body ErrorBody) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorEnvelope{Error: body})
}

// errorBodyFor classifies an execution error into the envelope stored on
// failed jobs, reusing the admission-time codes so a polled job reports the
// same contract as a synchronous rejection.
func errorBodyFor(err error) *ErrorBody {
	code := CodeInternal
	switch {
	case isCtxErr(err):
		code = CodeCancelled
	case errors.Is(err, pool.ErrQueueFull):
		code = CodeQueueFull
	case errors.Is(err, pool.ErrQueueClosed):
		code = CodeShuttingDown
	case errors.Is(err, workload.ErrUnknown):
		code = CodeUnknownWorkload
	}
	return &ErrorBody{Code: code, Message: err.Error()}
}

// writeUnknownWorkload rejects an unrecognized workload family with the
// nearest catalog name (when one is plausibly a typo target) in both the
// message and the machine-readable details.
func writeUnknownWorkload(w http.ResponseWriter, name string) {
	details := map[string]any{"workload": name}
	if near := workload.Nearest(name); near != "" {
		details["closest"] = near
	}
	writeErrorDetails(w, http.StatusBadRequest, CodeUnknownWorkload, details, "%s", unknownWorkloadText(name))
}

// errStatus maps an admission or execution error onto its HTTP status;
// errorBodyFor picks the matching code. The queue's failure modes must not
// be conflated (see pool.ErrQueueClosed): a full backlog is transient
// saturation the client should back off from (429), a closed queue means
// the service is shutting down and a retry against this process is futile
// (503). An unknown workload is the caller's mistake (400); anything else,
// a run cancelled under the caller included, is a 500.
func errStatus(err error) int {
	switch {
	case errors.Is(err, pool.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, pool.ErrQueueClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, workload.ErrUnknown):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// inBandError is the text a streamed response (sweep cell, tune footer)
// carries for a failed measurement once its 200 header is out. A queue
// closed mid-stream is a shutdown, not a measurement failure, and the text
// says so explicitly.
func inBandError(err error) string {
	if errors.Is(err, pool.ErrQueueClosed) {
		return "service shutting down: " + err.Error()
	}
	return err.Error()
}
