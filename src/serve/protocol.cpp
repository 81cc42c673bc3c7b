#include "serve/protocol.hpp"

#include <cstdlib>
#include <limits>

#include "common/strings.hpp"

namespace warp::serve::protocol {

namespace {

using common::Result;

bool parse_u64(std::string_view value, std::uint64_t& out) {
  long long parsed = 0;
  if (!common::parse_int(value, parsed) || parsed < 0) return false;
  out = static_cast<std::uint64_t>(parsed);
  return true;
}

// A numeric field's value. Anything that is not a number of type T becomes
// T's max, which no range admits, so check_ranges reports it with the
// field's own message.
template <typename T>
T field_value(std::string_view value) {
  std::uint64_t parsed = 0;
  if (!parse_u64(value, parsed) || parsed > std::numeric_limits<T>::max()) {
    return std::numeric_limits<T>::max();
  }
  return static_cast<T>(parsed);
}

// Free-text fields ride on a line protocol; keep them one line.
std::string sanitize(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

bool parse_double(std::string_view value, double& out) {
  const std::string token(value);
  if (token.empty()) return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

}  // namespace

std::string check_ranges(const Request& request) {
  const RequestOverrides& o = request.overrides;
  if (o.packed_width && *o.packed_width != 0 && *o.packed_width != 1 &&
      *o.packed_width != 2 && *o.packed_width != 4) {
    return "bad packed_width (want 0, 1, 2 or 4)";
  }
  if (o.max_candidates && (*o.max_candidates < 1 || *o.max_candidates > 64)) {
    return "bad max_candidates (want 1..64)";
  }
  if (o.csd_max_terms && *o.csd_max_terms > 16) {
    return "bad csd_max_terms (want 0..16)";
  }
  if (request.deadline_ms &&
      (*request.deadline_ms == 0 || *request.deadline_ms > kMaxDeadlineMs)) {
    return "bad deadline_ms (want 1..86400000)";
  }
  return {};
}

Result<Request> parse_request(std::string_view line) {
  using R = Result<Request>;
  const auto tokens = common::split(line, " \t");
  if (tokens.empty()) return R::error("empty request");
  if (tokens[0] != "warp") {
    return R::error("unknown verb: " + std::string(tokens[0].substr(0, 32)));
  }

  Request request;
  bool have_id = false;
  bool have_workload = false;
  // Duplicate detection without allocation: one flag per known key.
  bool seen_seq = false, seen_deadline = false;
  bool seen_width = false, seen_cand = false, seen_csd = false;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const std::string_view token = tokens[t];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return R::error("malformed field: " + std::string(token.substr(0, 32)));
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (value.empty()) return R::error("empty value for " + std::string(key));
    if (key == "id") {
      if (have_id) return R::error("duplicate id");
      if (!parse_u64(value, request.id)) return R::error("bad id");
      have_id = true;
    } else if (key == "workload") {
      if (have_workload) return R::error("duplicate workload");
      request.workload = std::string(value);
      have_workload = true;
    } else if (key == "seq") {
      if (seen_seq) return R::error("duplicate seq");
      std::uint64_t seq = 0;
      if (!parse_u64(value, seq)) return R::error("bad seq");
      request.seq = seq;
      seen_seq = true;
    } else if (key == "deadline_ms") {
      if (seen_deadline) return R::error("duplicate deadline_ms");
      request.deadline_ms = field_value<std::uint64_t>(value);
      seen_deadline = true;
    } else if (key == "packed_width") {
      if (seen_width) return R::error("duplicate packed_width");
      request.overrides.packed_width = field_value<unsigned>(value);
      seen_width = true;
    } else if (key == "max_candidates") {
      if (seen_cand) return R::error("duplicate max_candidates");
      request.overrides.max_candidates = field_value<unsigned>(value);
      seen_cand = true;
    } else if (key == "csd_max_terms") {
      if (seen_csd) return R::error("duplicate csd_max_terms");
      request.overrides.csd_max_terms = field_value<unsigned>(value);
      seen_csd = true;
    } else {
      return R::error("unknown key: " + std::string(key.substr(0, 32)));
    }
    // Range-check each field as it arrives: the first bad token is the one
    // reported.
    if (std::string err = check_ranges(request); !err.empty()) return R::error(std::move(err));
  }
  if (!have_id) return R::error("missing id");
  if (!have_workload) return R::error("missing workload");
  return request;
}

std::string encode_request(const Request& request) {
  std::string line = common::format("warp id=%llu workload=%s",
                                    static_cast<unsigned long long>(request.id),
                                    request.workload.c_str());
  if (request.seq) {
    line += common::format(" seq=%llu", static_cast<unsigned long long>(*request.seq));
  }
  if (request.deadline_ms) {
    line += common::format(" deadline_ms=%llu",
                           static_cast<unsigned long long>(*request.deadline_ms));
  }
  if (request.overrides.packed_width) {
    line += common::format(" packed_width=%u", *request.overrides.packed_width);
  }
  if (request.overrides.max_candidates) {
    line += common::format(" max_candidates=%u", *request.overrides.max_candidates);
  }
  if (request.overrides.csd_max_terms) {
    line += common::format(" csd_max_terms=%u", *request.overrides.csd_max_terms);
  }
  return line;
}

Reply make_ok_reply(std::uint64_t id, const warpsys::MultiWarpEntry& entry) {
  Reply reply;
  reply.status = ReplyStatus::kOk;
  reply.ok = true;
  reply.id = id;
  reply.workload = entry.name;
  reply.warped = entry.warped;
  reply.sw_seconds = entry.sw_seconds;
  reply.warped_seconds = entry.warped_seconds;
  reply.speedup = entry.speedup;
  reply.dpm_seconds = entry.dpm_seconds;
  reply.dpm_wait_seconds = entry.dpm_wait_seconds;
  reply.detail = entry.detail;
  return reply;
}

Reply make_error_reply(std::uint64_t id, std::string message) {
  Reply reply;
  reply.status = ReplyStatus::kErr;
  reply.ok = false;
  reply.id = id;
  reply.detail = std::move(message);
  return reply;
}

Reply make_busy_reply(std::uint64_t id, std::uint64_t retry_after_ms) {
  Reply reply;
  reply.status = ReplyStatus::kBusy;
  reply.ok = false;
  reply.id = id;
  reply.retry_after_ms = retry_after_ms;
  return reply;
}

Reply make_timeout_reply(std::uint64_t id, std::string message) {
  Reply reply;
  reply.status = ReplyStatus::kTimeout;
  reply.ok = false;
  reply.id = id;
  reply.detail = std::move(message);
  return reply;
}

std::string encode_reply(const Reply& reply) {
  if (reply.status == ReplyStatus::kBusy) {
    return common::format("busy id=%llu retry_ms=%llu",
                          static_cast<unsigned long long>(reply.id),
                          static_cast<unsigned long long>(reply.retry_after_ms));
  }
  if (reply.status == ReplyStatus::kTimeout) {
    return common::format("timeout id=%llu msg=%s",
                          static_cast<unsigned long long>(reply.id),
                          sanitize(reply.detail).c_str());
  }
  if (!reply.ok) {
    return common::format("err id=%llu msg=%s",
                          static_cast<unsigned long long>(reply.id),
                          sanitize(reply.detail).c_str());
  }
  return common::format(
      "ok id=%llu workload=%s warped=%d sw_s=%.17g warped_s=%.17g speedup=%.17g "
      "dpm_s=%.17g wait_s=%.17g detail=%s",
      static_cast<unsigned long long>(reply.id), reply.workload.c_str(),
      reply.warped ? 1 : 0, reply.sw_seconds, reply.warped_seconds, reply.speedup,
      reply.dpm_seconds, reply.dpm_wait_seconds, sanitize(reply.detail).c_str());
}

Result<Reply> parse_reply(std::string_view line) {
  using R = Result<Reply>;
  Reply reply;
  if (common::starts_with(line, "busy ")) {
    // All-strict-token verb: id and retry_ms, each exactly once.
    reply.status = ReplyStatus::kBusy;
    reply.ok = false;
    bool have_id = false, have_retry = false;
    for (const std::string_view token : common::split(line.substr(5), " \t")) {
      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos || eq == 0) return R::error("malformed busy field");
      const std::string_view key = token.substr(0, eq);
      const std::string_view value = token.substr(eq + 1);
      if (key == "id" && !have_id) {
        if (!parse_u64(value, reply.id)) return R::error("bad busy id");
        have_id = true;
      } else if (key == "retry_ms" && !have_retry) {
        if (!parse_u64(value, reply.retry_after_ms)) return R::error("bad retry_ms");
        have_retry = true;
      } else {
        return R::error("unknown or repeated busy key: " + std::string(key.substr(0, 32)));
      }
    }
    if (!have_id || !have_retry) return R::error("busy reply missing fields");
    return reply;
  }
  std::string_view tail;  // the final free-text field's marker + content
  if (common::starts_with(line, "ok ")) {
    reply.status = ReplyStatus::kOk;
    reply.ok = true;
    const std::size_t pos = line.find(" detail=");
    if (pos == std::string_view::npos) return R::error("ok reply without detail=");
    reply.detail = std::string(line.substr(pos + 8));
    tail = line.substr(3, pos - 3);
  } else if (common::starts_with(line, "err ")) {
    reply.status = ReplyStatus::kErr;
    reply.ok = false;
    const std::size_t pos = line.find(" msg=");
    if (pos == std::string_view::npos) return R::error("err reply without msg=");
    reply.detail = std::string(line.substr(pos + 5));
    tail = line.substr(4, pos - 4);
  } else if (common::starts_with(line, "timeout ")) {
    reply.status = ReplyStatus::kTimeout;
    reply.ok = false;
    const std::size_t pos = line.find(" msg=");
    if (pos == std::string_view::npos) return R::error("timeout reply without msg=");
    reply.detail = std::string(line.substr(pos + 5));
    tail = line.substr(8, pos - 8);
  } else {
    return R::error("unknown reply verb");
  }

  bool have_id = false;
  // The ok payload: every field must appear exactly once.
  bool have_workload = false, have_warped = false, have_sw = false, have_warped_s = false,
       have_speedup = false, have_dpm = false, have_wait = false;
  for (const std::string_view token : common::split(tail, " \t")) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) return R::error("malformed reply field");
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "id" && !have_id) {
      if (!parse_u64(value, reply.id)) return R::error("bad reply id");
      have_id = true;
    } else if (reply.ok && key == "workload" && !have_workload) {
      reply.workload = std::string(value);
      have_workload = true;
    } else if (reply.ok && key == "warped" && !have_warped) {
      if (value != "0" && value != "1") return R::error("bad warped flag");
      reply.warped = value == "1";
      have_warped = true;
    } else if (reply.ok && key == "sw_s" && !have_sw) {
      if (!parse_double(value, reply.sw_seconds)) return R::error("bad sw_s");
      have_sw = true;
    } else if (reply.ok && key == "warped_s" && !have_warped_s) {
      if (!parse_double(value, reply.warped_seconds)) return R::error("bad warped_s");
      have_warped_s = true;
    } else if (reply.ok && key == "speedup" && !have_speedup) {
      if (!parse_double(value, reply.speedup)) return R::error("bad speedup");
      have_speedup = true;
    } else if (reply.ok && key == "dpm_s" && !have_dpm) {
      if (!parse_double(value, reply.dpm_seconds)) return R::error("bad dpm_s");
      have_dpm = true;
    } else if (reply.ok && key == "wait_s" && !have_wait) {
      if (!parse_double(value, reply.dpm_wait_seconds)) return R::error("bad wait_s");
      have_wait = true;
    } else {
      return R::error("unknown or repeated reply key: " + std::string(key.substr(0, 32)));
    }
  }
  if (!have_id) return R::error("reply missing id");
  if (reply.ok && !(have_workload && have_warped && have_sw && have_warped_s &&
                    have_speedup && have_dpm && have_wait)) {
    return R::error("ok reply missing fields");
  }
  return reply;
}

warpsys::MultiWarpEntry entry_of(const Reply& reply) {
  warpsys::MultiWarpEntry entry;
  entry.name = reply.workload;
  entry.detail = reply.detail;
  entry.sw_seconds = reply.sw_seconds;
  entry.warped_seconds = reply.warped_seconds;
  entry.speedup = reply.speedup;
  entry.dpm_seconds = reply.dpm_seconds;
  entry.dpm_wait_seconds = reply.dpm_wait_seconds;
  entry.warped = reply.warped;
  return entry;
}

}  // namespace warp::serve::protocol
