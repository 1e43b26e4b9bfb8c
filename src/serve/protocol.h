// Wire protocol of the online query service: length-prefixed JSON frames
// over a stream socket, with a versioned handshake.
//
// Framing: every message is a 4-byte big-endian payload length followed by
// that many bytes of UTF-8 JSON. A frame longer than the configured maximum
// is a protocol error (the server replies with a typed error and closes —
// it never buffers an attacker-sized allocation). Length 0 is invalid.
//
// Requests are JSON objects with an "op" field and an optional client-chosen
// "id" echoed back in the response (correlation for pipelined clients):
//
//   {"op":"hello","id":1,"version":1,"token":"...","client":"dashboard"}
//   {"op":"count","id":2,"dataset":"demo","query":"Age:20..39;items:i3 i7",
//    "access":"anonymized"}                      // access optional
//   {"op":"list","id":3}
//   {"op":"metrics","id":4}
//   {"op":"admin.traces","id":5}                  // direct access only
//   {"op":"ping","id":6}
//   {"op":"bye","id":7}
//
// The "query" string is the repo's COUNT-query line format (query/query.h),
// so workload files and wire queries share one parser.
//
// Responses always carry "ok" and the echoed "id". Success payloads are
// op-specific; failures are uniform:
//
//   {"ok":false,"id":2,"error":"ResourceExhausted","message":"...",
//    "retry_after_ms":120}                       // hint present when known
//
// The handshake is mandatory: the first request on a connection must be
// "hello" with a matching protocol version and a valid tenant token; every
// other op before a successful hello is rejected with FailedPrecondition.

#ifndef SECRETA_SERVE_PROTOCOL_H_
#define SECRETA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "serve/json.h"

namespace secreta {

/// Protocol version spoken by this build. Hello requests with a different
/// version are rejected (no downgrade negotiation: one version exists).
inline constexpr uint32_t kServeProtocolVersion = 1;

/// Default ceiling on one frame's payload size. Requests are small; anything
/// near this limit is malformed or hostile.
inline constexpr size_t kServeMaxFrameBytes = 1u << 20;

// ---- Framing ---------------------------------------------------------------

/// Decodes a 4-byte big-endian frame length prefix and validates it:
/// InvalidArgument unless 0 < length <= max_frame_bytes (or `header` is not
/// exactly 4 bytes). Pure — no I/O — so the untrusted first bytes of every
/// connection are unit- and fuzz-testable without a socket (tests/fuzz/
/// fuzz_protocol.cc); ReadFrame delegates here.
Result<uint32_t> DecodeFrameLength(std::string_view header,
                                   size_t max_frame_bytes);

/// Sends all of `data` to `fd`, retrying on EINTR and short writes.
/// MSG_NOSIGNAL, so a dead peer yields IOError (EPIPE) instead of SIGPIPE.
Status SendAll(int fd, std::string_view data);

/// Writes one frame (length prefix + payload) to `fd`, handling partial
/// writes and EINTR. Fails with IOError when the peer is gone.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame from `fd` into `*payload`, handling partial reads and
/// EINTR. Outcomes:
///  - OK with *clean_eof=false: a complete frame was read.
///  - OK with *clean_eof=true: the peer closed before sending any byte of a
///    new frame (normal end of a connection); *payload is empty.
///  - IOError: mid-frame EOF (truncated frame) or a socket error.
///  - InvalidArgument: zero-length or oversized frame (protocol violation).
///  - DeadlineExceeded: the socket's receive timeout expired (idle client).
Status ReadFrame(int fd, size_t max_frame_bytes, std::string* payload,
                 bool* clean_eof);

// ---- Requests --------------------------------------------------------------

/// Operations a client can request.
enum class ServeOp { kHello, kCount, kList, kMetrics, kTraces, kPing, kBye };

const char* ServeOpToString(ServeOp op);
Result<ServeOp> ParseServeOp(const std::string& name);

/// One decoded request frame (fields beyond the op's schema stay default).
struct ServeRequest {
  ServeOp op = ServeOp::kPing;
  uint64_t id = 0;  ///< client correlation id, echoed in the response
  // hello
  uint32_t version = 0;
  std::string token;
  std::string client;
  // count
  std::string dataset;
  std::string query;   ///< COUNT-query line format (query/query.h)
  std::string access;  ///< "", "anonymized", or "direct" ("" = session default)
};

/// Decodes a request payload. Typed errors on malformed JSON, unknown ops,
/// or schema violations — never crashes on garbage.
Result<ServeRequest> ParseServeRequest(const std::string& payload);

/// Encodes a request (client side).
std::string SerializeServeRequest(const ServeRequest& request);

// ---- Responses -------------------------------------------------------------

/// Summary row of the "list" response.
struct ServeDatasetInfo {
  std::string name;
  uint64_t records = 0;
  uint64_t version = 0;  ///< publication sequence number of this release
  std::string config;    ///< anonymization config label
};

/// Server-side response builders (each returns a complete JSON payload).
std::string HelloResponsePayload(uint64_t id, uint64_t session_id,
                                 const std::string& tenant,
                                 const std::string& access,
                                 uint32_t server_version);
std::string CountResponsePayload(uint64_t id, double count,
                                 const std::string& access, bool cached,
                                 double elapsed_seconds);
std::string ListResponsePayload(uint64_t id,
                                const std::vector<ServeDatasetInfo>& datasets);
/// Wraps an already-serialized JSON object (e.g. a metrics snapshot).
std::string MetricsResponsePayload(uint64_t id, const std::string& body_json);
/// Wraps an already-serialized JSON array of pinned request traces
/// (obs/trace_tail.h) as {"traces":[...]}.
std::string TracesResponsePayload(uint64_t id, const std::string& traces_json);
std::string PongResponsePayload(uint64_t id);
std::string ByeResponsePayload(uint64_t id);
/// Uniform failure payload; carries status code name, message, and the
/// retry-after hint (as integer milliseconds) when the status has one.
std::string ErrorResponsePayload(uint64_t id, const Status& status);

/// One decoded response frame (client side).
struct ServeResponse {
  bool ok = false;
  uint64_t id = 0;
  JsonValue body;  ///< the full response object for op-specific fields
};

/// Decodes a response payload. A well-formed error response is returned as
/// a non-OK *Status* carrying the server's code/message/retry-after, so
/// callers handle transport and application errors uniformly; ok=true
/// responses land in the returned ServeResponse.
Result<ServeResponse> ParseServeResponse(const std::string& payload);

}  // namespace secreta

#endif  // SECRETA_SERVE_PROTOCOL_H_
