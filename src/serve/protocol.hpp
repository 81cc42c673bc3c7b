// warpd wire protocol: line-delimited warp-session requests and replies.
//
// One request or reply per '\n'-terminated line of UTF-8-clean ASCII.
// Grammar (docs/serving.md has the full spec and examples):
//
//   request  = "warp" *( SP key "=" value )
//   keys       id=<u64>            required; echoed on the reply
//              workload=<name>     required; a workloads::extended_workloads() name
//              seq=<u64>           optional; position in the shared DPM's
//                                  *virtual* admission order (see warpd.hpp)
//              deadline_ms=<1..86400000>   optional; cancel the session with a
//                                  "timeout" reply if it cannot *start* within
//                                  this many host milliseconds of admission
//              packed_width=<0|1|2|4>      optional WarpSystemConfig override
//              max_candidates=<1..64>      optional DpmOptions override
//              csd_max_terms=<0..16>       optional SynthOptions override
//   ping     = "ping"              answered with the raw line "pong"
//   drain    = "drain"             answered "draining"; the server stops
//                                  admitting (new sessions get "busy") and a
//                                  daemon exits 0 once in-flight work ends
//   stats    = "stats"             answered with one "stats k=v ..." line
//                                  (occupancy + overload counters; the load
//                                  harness reads pipeline runs/queue depth here)
//
//   reply    = "ok" SP "id=" u64 SP "workload=" name SP "warped=" (0|1)
//              SP "sw_s=" dbl SP "warped_s=" dbl SP "speedup=" dbl
//              SP "dpm_s=" dbl SP "wait_s=" dbl SP "detail=" rest-of-line
//            | "err" SP "id=" u64 SP "msg=" rest-of-line
//            | "busy" SP "id=" u64 SP "retry_ms=" u64
//            | "timeout" SP "id=" u64 SP "msg=" rest-of-line
//
// "busy" is the admission controller's overload answer: the request was NOT
// admitted (no session, no side effects beyond counters) and the client may
// retry after the deterministic retry_ms hint. "timeout" means the session
// was admitted but cancelled before it ever started (its deadline_ms
// elapsed while queued); no simulated work ran on its behalf.
// Doubles are rendered with %.17g so a decoded reply reproduces the
// server-side MultiWarpEntry bit for bit — the determinism gates compare
// tables straight off the wire. detail=/msg= are always the final field and
// consume the rest of the line (free text may contain spaces); every other
// value is a strict token. Parsers never throw on wire input: any malformed
// byte sequence is an error return, which the server answers with an "err"
// line (fuzz-tested in tests/warpd_proto_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "warp/warp_system.hpp"

namespace warp::serve::protocol {

/// Server-side cap on one request line (bytes, excluding the newline).
/// Longer lines are discarded up to the next newline and answered with an
/// error reply.
inline constexpr std::size_t kMaxLineBytes = 4096;

/// Per-session WarpSystemConfig overrides a request may carry. Ranges are
/// checked by check_ranges() at parse time (and again at admission for
/// in-process callers that construct Request directly).
struct RequestOverrides {
  std::optional<unsigned> packed_width;    // 0 (auto), 1, 2 or 4
  std::optional<unsigned> max_candidates;  // 1..64
  std::optional<unsigned> csd_max_terms;   // 0..16

  bool operator==(const RequestOverrides&) const = default;
};

/// Upper bound on deadline_ms (24 h) — large enough for any real client,
/// small enough that deadline arithmetic can never overflow host clocks.
inline constexpr std::uint64_t kMaxDeadlineMs = 86'400'000;

struct Request {
  std::uint64_t id = 0;     // client correlation token, echoed verbatim
  std::string workload;     // extended_workloads() name
  std::optional<std::uint64_t> seq;  // virtual admission slot (warpd.hpp)
  /// Host milliseconds from admission within which the session must start
  /// (be claimed by a worker); expired queued sessions are cancelled with a
  /// "timeout" reply. 1..kMaxDeadlineMs.
  std::optional<std::uint64_t> deadline_ms;
  RequestOverrides overrides;

  bool operator==(const Request&) const = default;
};

/// What a reply line says about the request. kBusy and kTimeout share the
/// "not ok" bit with kErr but mean different things: kErr rejects the
/// request itself, kBusy sheds it at admission (retry later), kTimeout
/// cancels an admitted-but-never-started session.
enum class ReplyStatus : std::uint8_t { kOk, kErr, kBusy, kTimeout };

struct Reply {
  ReplyStatus status = ReplyStatus::kErr;
  bool ok = false;  // status == kOk, kept as a field for terse call sites
  std::uint64_t id = 0;
  // "ok" payload: the session's MultiWarpEntry fields.
  std::string workload;
  bool warped = false;
  double sw_seconds = 0.0;
  double warped_seconds = 0.0;
  double speedup = 0.0;
  double dpm_seconds = 0.0;
  double dpm_wait_seconds = 0.0;
  std::uint64_t retry_after_ms = 0;  // "busy" payload
  std::string detail;  // entry detail (ok) or message (err/timeout)
};

/// The one definition of the request ranges (packed_width, max_candidates,
/// csd_max_terms, deadline_ms): empty when every present field is in range,
/// else the error message. parse_request and warpd's admission both use it.
std::string check_ranges(const Request& request);

/// Parse one request line (no trailing newline). Never throws on wire
/// input; unknown verbs/keys, missing id/workload, duplicate keys and
/// out-of-range values (check_ranges) are errors.
common::Result<Request> parse_request(std::string_view line);

std::string encode_request(const Request& request);

Reply make_ok_reply(std::uint64_t id, const warpsys::MultiWarpEntry& entry);
Reply make_error_reply(std::uint64_t id, std::string message);
Reply make_busy_reply(std::uint64_t id, std::uint64_t retry_after_ms);
Reply make_timeout_reply(std::uint64_t id, std::string message);

std::string encode_reply(const Reply& reply);

/// Parse one reply line. Same no-throw guarantee as parse_request.
common::Result<Reply> parse_reply(std::string_view line);

/// The MultiWarpEntry a decoded "ok" reply carries (name = workload). With
/// %.17g doubles this round-trips the server-side entry bit for bit, so
/// determinism tests compare wire tables with operator== directly.
warpsys::MultiWarpEntry entry_of(const Reply& reply);

}  // namespace warp::serve::protocol
