// Robustness tests for the warpd wire protocol and socket front end.
//
// The framing contract: nothing a client can put on the wire crashes or
// stops the server. Every well-formed request gets exactly one reply;
// malformed, oversized and unknown-workload lines get "err" replies. These
// tests fuzz parse_request/parse_reply with byte flips and truncations of
// canonical lines (run under ASan/UBSan in CI), pin the %.17g bit-exact
// double round-trip the socket determinism gates rely on, and drive a live
// server with garbage, oversized lines and flipped request bytes, requiring
// one reply per line and a clean stop. Socket paths that do not fit
// sun_path are rejected before any file appears, and the stats reply
// carries the counters the benchmark reads by key.
#include <gtest/gtest.h>

#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace warp {
namespace {

using serve::protocol::Reply;
using serve::protocol::Request;

const char kCanonicalRequest[] =
    "warp id=42 workload=brev seq=7 deadline_ms=250 packed_width=2 max_candidates=8 "
    "csd_max_terms=3";

TEST(WarpdProtocol, RequestRoundTrip) {
  auto parsed = serve::protocol::parse_request(kCanonicalRequest);
  ASSERT_TRUE(parsed) << parsed.message();
  const Request& request = parsed.value();
  EXPECT_EQ(request.id, 42u);
  EXPECT_EQ(request.workload, "brev");
  ASSERT_TRUE(request.seq.has_value());
  EXPECT_EQ(*request.seq, 7u);
  ASSERT_TRUE(request.deadline_ms.has_value());
  EXPECT_EQ(*request.deadline_ms, 250u);
  ASSERT_TRUE(request.overrides.packed_width.has_value());
  EXPECT_EQ(*request.overrides.packed_width, 2u);
  ASSERT_TRUE(request.overrides.max_candidates.has_value());
  EXPECT_EQ(*request.overrides.max_candidates, 8u);
  ASSERT_TRUE(request.overrides.csd_max_terms.has_value());
  EXPECT_EQ(*request.overrides.csd_max_terms, 3u);
  EXPECT_EQ(serve::protocol::encode_request(request), kCanonicalRequest);
}

TEST(WarpdProtocol, MinimalRequest) {
  auto parsed = serve::protocol::parse_request("warp id=0 workload=g3fax");
  ASSERT_TRUE(parsed) << parsed.message();
  EXPECT_FALSE(parsed.value().seq.has_value());
  EXPECT_FALSE(parsed.value().overrides.packed_width.has_value());
}

TEST(WarpdProtocol, RejectsMalformedRequests) {
  const char* kBad[] = {
      "",
      "warp",
      "ward id=1 workload=brev",
      "warp id=1",
      "warp workload=brev",
      "warp id=1 id=2 workload=brev",
      "warp id=1 workload=brev workload=brev",
      "warp id=-1 workload=brev",
      "warp id=zzz workload=brev",
      "warp id=1 workload=brev seq=",
      "warp id=1 workload=brev seq=-3",
      "warp id=1 workload=brev seq=1 seq=2",
      "warp id=1 workload=brev deadline_ms=",
      "warp id=1 workload=brev deadline_ms=0",
      "warp id=1 workload=brev deadline_ms=86400001",
      "warp id=1 workload=brev deadline_ms=1 deadline_ms=2",
      "warp id=1 workload=brev deadline_ms=soon",
      "warp id=1 workload=brev packed_width=3",
      "warp id=1 workload=brev packed_width=8",
      "warp id=1 workload=brev max_candidates=0",
      "warp id=1 workload=brev max_candidates=65",
      "warp id=1 workload=brev csd_max_terms=17",
      "warp id=99999999999999999999 workload=brev",
      "warp id=1 workload=brev packed_width=99999999999999999999",
      "warp id=1 workload=brev bogus=1",
      "warp id=1 workload=brev noequals",
      "warp id=1 workload=brev =value",
      "warp id=1 workload=crc fwd=2",  // fwd= is not a request key
  };
  for (const char* line : kBad) {
    EXPECT_FALSE(serve::protocol::parse_request(line)) << "accepted: '" << line << "'";
  }
}

// The request ranges are defined once: every out-of-range value is rejected
// by the wire parser and by in-process admission (Warpd::submit, which
// takes Request structs that never went through the parser) with the same
// message, and both accept the range ends.
TEST(WarpdProtocol, RangesRejectedAlikeByParserAndAdmission) {
  struct Case {
    const char* field;
    std::uint64_t value;
    bool in_range;
  };
  const Case kCases[] = {
      {"packed_width", 0, true},         {"packed_width", 4, true},
      {"packed_width", 3, false},        {"packed_width", 5, false},
      {"packed_width", 8, false},        {"max_candidates", 1, true},
      {"max_candidates", 64, true},      {"max_candidates", 0, false},
      {"max_candidates", 65, false},     {"csd_max_terms", 0, true},
      {"csd_max_terms", 16, true},       {"csd_max_terms", 17, false},
      {"deadline_ms", 1, true},          {"deadline_ms", 86'400'000, true},
      {"deadline_ms", 0, false},         {"deadline_ms", 86'400'001, false},
  };
  serve::WarpdOptions options;
  options.base = experiments::default_options();
  options.workers = 1;
  serve::Warpd engine(options);
  for (const Case& c : kCases) {
    const std::string field = c.field;
    const std::string line =
        "warp id=1 workload=brev " + field + "=" + std::to_string(c.value);
    const auto parsed = serve::protocol::parse_request(line);

    Request request;
    request.id = 1;
    request.workload = "brev";
    const auto narrow = static_cast<unsigned>(c.value);
    if (field == "packed_width") request.overrides.packed_width = narrow;
    if (field == "max_candidates") request.overrides.max_candidates = narrow;
    if (field == "csd_max_terms") request.overrides.csd_max_terms = narrow;
    if (field == "deadline_ms") request.deadline_ms = c.value;
    const std::string check = serve::protocol::check_ranges(request);

    if (c.in_range) {
      EXPECT_TRUE(parsed) << line << ": " << parsed.message();
      EXPECT_EQ(check, "") << line;
      continue;
    }
    ASSERT_FALSE(parsed) << "accepted: '" << line << "'";
    EXPECT_EQ(check, parsed.message()) << line;
    // Out-of-range submits are rejected synchronously, on this thread.
    std::optional<serve::SessionOutcome> outcome;
    engine.submit(request, [&](const serve::SessionOutcome& out) { outcome = out; });
    ASSERT_TRUE(outcome.has_value()) << line;
    EXPECT_EQ(outcome->status, serve::protocol::ReplyStatus::kErr) << line;
    EXPECT_EQ(outcome->error, parsed.message()) << line;
  }
  EXPECT_EQ(engine.stats().admitted, 0u);
  engine.stop();
}

// The determinism gates compare result tables reconstructed from reply
// lines, so the double encoding must round-trip bit-exactly.
TEST(WarpdProtocol, ReplyRoundTripIsBitExact) {
  warpsys::MultiWarpEntry entry;
  entry.name = "idct";
  entry.detail = "loop at 0x40, 12 ops";
  entry.sw_seconds = 1.0 / 3.0;
  entry.warped_seconds = 0.12345678901234567;
  entry.speedup = entry.sw_seconds / entry.warped_seconds;
  entry.dpm_seconds = 1.6180339887498949e-3;
  entry.dpm_wait_seconds = 2.2250738585072014e-308;  // smallest normal double
  entry.warped = true;

  const std::string line =
      serve::protocol::encode_reply(serve::protocol::make_ok_reply(9, entry));
  auto parsed = serve::protocol::parse_reply(line);
  ASSERT_TRUE(parsed) << parsed.message();
  EXPECT_TRUE(parsed.value().ok);
  EXPECT_EQ(parsed.value().id, 9u);
  EXPECT_TRUE(serve::protocol::entry_of(parsed.value()) == entry) << line;
}

TEST(WarpdProtocol, ErrorReplyRoundTrip) {
  const std::string line = serve::protocol::encode_reply(
      serve::protocol::make_error_reply(3, "unknown workload: nope"));
  auto parsed = serve::protocol::parse_reply(line);
  ASSERT_TRUE(parsed) << parsed.message();
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().id, 3u);
  EXPECT_EQ(parsed.value().detail, "unknown workload: nope");
}

TEST(WarpdProtocol, ReplyParserRejectsMissingFields) {
  EXPECT_FALSE(serve::protocol::parse_reply("ok id=1 detail=x"));
  EXPECT_FALSE(serve::protocol::parse_reply("ok id=1 workload=brev warped=1 sw_s=1"));
  EXPECT_FALSE(serve::protocol::parse_reply("err id=1"));
  EXPECT_FALSE(serve::protocol::parse_reply("hmm id=1 msg=x"));
  // A complete ok line, then the same line with a key the grammar does not
  // have (node=).
  ASSERT_TRUE(serve::protocol::parse_reply(
      "ok id=1 workload=brev warped=1 sw_s=1 warped_s=1 speedup=1 dpm_s=0 wait_s=0 detail=x"));
  EXPECT_FALSE(serve::protocol::parse_reply(
      "ok id=1 workload=brev warped=1 sw_s=1 warped_s=1 speedup=1 dpm_s=0 wait_s=0 node=0 "
      "detail=x"));
}

TEST(WarpdProtocol, BusyReplyRoundTrip) {
  const std::string line =
      serve::protocol::encode_reply(serve::protocol::make_busy_reply(17, 125));
  EXPECT_EQ(line, "busy id=17 retry_ms=125");
  auto parsed = serve::protocol::parse_reply(line);
  ASSERT_TRUE(parsed) << parsed.message();
  EXPECT_EQ(parsed.value().status, serve::protocol::ReplyStatus::kBusy);
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().id, 17u);
  EXPECT_EQ(parsed.value().retry_after_ms, 125u);
}

TEST(WarpdProtocol, TimeoutReplyRoundTrip) {
  const std::string line = serve::protocol::encode_reply(
      serve::protocol::make_timeout_reply(23, "deadline_ms=5 elapsed before the session started"));
  auto parsed = serve::protocol::parse_reply(line);
  ASSERT_TRUE(parsed) << parsed.message();
  EXPECT_EQ(parsed.value().status, serve::protocol::ReplyStatus::kTimeout);
  EXPECT_FALSE(parsed.value().ok);
  EXPECT_EQ(parsed.value().id, 23u);
  EXPECT_EQ(parsed.value().detail, "deadline_ms=5 elapsed before the session started");
}

TEST(WarpdProtocol, RejectsMalformedBusyAndTimeoutReplies) {
  const char* kBad[] = {
      "busy",
      "busy id=1",
      "busy retry_ms=5",
      "busy id=1 retry_ms=",
      "busy id=1 retry_ms=-2",
      "busy id=1 retry_ms=5 retry_ms=6",
      "busy id=1 id=2 retry_ms=5",
      "busy id=1 retry_ms=5 extra=1",
      "busy id=x retry_ms=5",
      "timeout",
      "timeout id=1",
      "timeout msg=x",
  };
  for (const char* line : kBad) {
    EXPECT_FALSE(serve::protocol::parse_reply(line)) << "accepted: '" << line << "'";
  }
}

// Byte-flip fuzz: every byte of the canonical lines, several masks. The
// parser may accept or reject the mutated line, but must never crash or
// trip a sanitizer.
TEST(WarpdProtocol, ByteFlipFuzzNeverCrashes) {
  const std::string reply_line = serve::protocol::encode_reply(
      serve::protocol::make_ok_reply(7, warpsys::MultiWarpEntry{}));
  const std::string busy_line =
      serve::protocol::encode_reply(serve::protocol::make_busy_reply(7, 50));
  const std::string timeout_line = serve::protocol::encode_reply(
      serve::protocol::make_timeout_reply(7, "deadline_ms=5 elapsed before the session started"));
  const unsigned char kMasks[] = {0x01, 0x08, 0x20, 0x80, 0xFF};
  for (const std::string& base :
       {std::string(kCanonicalRequest), reply_line, busy_line, timeout_line}) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      for (const unsigned char mask : kMasks) {
        std::string mutated = base;
        mutated[i] = static_cast<char>(mutated[i] ^ mask);
        (void)serve::protocol::parse_request(mutated);
        (void)serve::protocol::parse_reply(mutated);
      }
    }
  }
}

// Truncation fuzz: every prefix of the canonical lines.
TEST(WarpdProtocol, TruncationFuzzNeverCrashes) {
  const std::string reply_line = serve::protocol::encode_reply(
      serve::protocol::make_ok_reply(7, warpsys::MultiWarpEntry{}));
  const std::string busy_line =
      serve::protocol::encode_reply(serve::protocol::make_busy_reply(7, 50));
  const std::string timeout_line = serve::protocol::encode_reply(
      serve::protocol::make_timeout_reply(7, "deadline_ms=5 elapsed before the session started"));
  for (const std::string& base :
       {std::string(kCanonicalRequest), reply_line, busy_line, timeout_line}) {
    for (std::size_t len = 0; len <= base.size(); ++len) {
      const std::string prefix = base.substr(0, len);
      (void)serve::protocol::parse_request(prefix);
      (void)serve::protocol::parse_reply(prefix);
    }
  }
}

// Live server: garbage, oversized lines, unknown workloads and flipped
// request bytes all get error replies; valid requests still complete; the
// server stops cleanly afterwards.
TEST(WarpdServer, SurvivesHostileClient) {
  serve::SocketServerOptions options;
  options.path = common::format("/tmp/warpd_proto_%d.sock", static_cast<int>(::getpid()));
  options.engine.workers = 2;
  options.engine.base = experiments::default_options();
  serve::SocketServer server(options);
  ASSERT_TRUE(server.start());

  serve::Client client;
  ASSERT_TRUE(client.connect(options.path));

  std::size_t sent = 0;
  auto send = [&](const std::string& line) {
    ASSERT_TRUE(client.send_line(line));
    ++sent;
  };
  send("this is not a warp request");
  send("warp id=1 workload=definitely_not_a_workload");
  send(std::string(2 * options.max_line_bytes, 'x'));  // oversized, no structure
  send("warp id=2 workload=brev max_candidates=900");
  // Flip every byte of a valid line (0xFF mask); skip mutations that change
  // the framing itself (newline/carriage-return) — each sent line must earn
  // exactly one reply.
  const std::string valid = "warp id=3 workload=brev";
  for (std::size_t i = 0; i < valid.size(); ++i) {
    std::string mutated = valid;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    if (mutated[i] == '\n' || mutated[i] == '\r') continue;
    send(mutated);
  }
  send("warp id=4 workload=brev");  // a real session at the end
  client.shutdown_send();

  std::size_t ok_for_id4 = 0;
  std::size_t err_replies = 0;
  std::size_t ok_replies = 0;
  for (std::size_t got = 0; got < sent; ++got) {
    auto line = client.read_line();
    ASSERT_TRUE(line) << "reply " << got << " of " << sent << ": " << line.message();
    auto reply = serve::protocol::parse_reply(line.value());
    ASSERT_TRUE(reply) << line.value();
    if (reply.value().ok) {
      ++ok_replies;
      if (reply.value().id == 4) ++ok_for_id4;
    } else {
      ++err_replies;
    }
  }
  EXPECT_EQ(ok_for_id4, 1u);
  EXPECT_GE(err_replies, 4u);
  // Nothing further: the server closes the connection after the last reply.
  EXPECT_FALSE(client.read_line());
  server.stop();

  const auto stats = server.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_GE(stats.parse_errors, 3u);
  EXPECT_GE(stats.oversized_lines, 1u);
  EXPECT_EQ(stats.replies, sent);
  const auto engine_stats = server.engine().stats();
  EXPECT_EQ(engine_stats.completed, ok_replies);
  EXPECT_GE(engine_stats.rejected, 1u);  // the unknown workload
}

// The "stats" reply carries the engine counters that perfbench's warpd_warm
// workload reads by key, each equal to the engine's own value. A missing key
// would read as 0 there, so the keys are pinned here; the removed
// coalesced, disk_hits and peak_bytes keys must stay gone.
TEST(WarpdServer, StatsReplyCarriesTheBenchmarkKeys) {
  serve::SocketServerOptions options;
  options.path =
      common::format("/tmp/warpd_proto_stats_%d.sock", static_cast<int>(::getpid()));
  options.engine.workers = 1;
  options.engine.admission.max_sessions = 2;  // a burst sheds some sessions busy
  options.engine.base = experiments::default_options();
  serve::SocketServer server(options);
  ASSERT_TRUE(server.start());

  serve::Client client;
  ASSERT_TRUE(client.connect(options.path));
  const unsigned kSessions = 6;
  for (unsigned i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(client.send_line(common::format("warp id=%u workload=brev", i)));
  }
  for (unsigned got = 0; got < kSessions; ++got) {
    auto line = client.read_line();
    ASSERT_TRUE(line) << line.message();
    ASSERT_TRUE(serve::protocol::parse_reply(line.value())) << line.value();
  }
  ASSERT_TRUE(client.send_line("stats"));
  auto line = client.read_line();
  ASSERT_TRUE(line) << line.message();

  std::map<std::string, std::uint64_t> fields;
  const auto tokens = common::split(line.value(), " ");
  ASSERT_FALSE(tokens.empty());
  EXPECT_EQ(tokens[0], "stats");
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    ASSERT_NE(eq, std::string_view::npos) << line.value();
    const std::string key(token.substr(0, eq));
    EXPECT_EQ(fields.count(key), 0u) << "duplicate key " << key;
    fields[key] = std::strtoull(std::string(token.substr(eq + 1)).c_str(), nullptr, 10);
  }
  const serve::WarpdStats engine = server.engine().stats();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"max_queue_depth", engine.max_queue_depth},
      {"pipeline_runs", engine.pipeline_runs},
      {"busy", engine.busy_rejected},
      {"timeouts", engine.timeouts},
  };
  for (const auto& [key, value] : expected) {
    ASSERT_EQ(fields.count(key), 1u) << key << " missing from: " << line.value();
    EXPECT_EQ(fields.at(key), value) << key;
  }
  EXPECT_GT(engine.pipeline_runs, 0u);
  EXPECT_EQ(fields.count("coalesced"), 0u) << line.value();
  EXPECT_EQ(fields.count("disk_hits"), 0u) << line.value();
  EXPECT_EQ(fields.count("peak_bytes"), 0u) << line.value();
  client.close();
  server.stop();
}

// The socket path must be nonempty and fit sockaddr_un::sun_path with its
// terminator. A bad path fails start() and connect() before any socket
// exists, so no file appears; the longest path that fits still serves.
TEST(WarpdServer, RejectsSocketPathsThatDoNotFit) {
  char dir_template[] = "/tmp/warpd_path_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::filesystem::path dir = dir_template;
  const std::size_t sun_path_bytes = sizeof(sockaddr_un::sun_path);  // 108 on Linux
  std::string longest = dir.string() + "/";
  longest.append(sun_path_bytes - 1 - longest.size(), 's');
  const std::string too_long = longest + "s";

  for (const std::string& path : {std::string(), too_long}) {
    serve::SocketServerOptions options;
    options.path = path;
    options.engine.workers = 1;
    serve::SocketServer server(options);
    EXPECT_FALSE(server.start()) << "start() took a " << path.size() << "-byte path";
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << "a " << path.size() << "-byte path left a file";
    serve::Client client;
    EXPECT_FALSE(client.connect(path)) << "connect() took a " << path.size() << "-byte path";
  }

  serve::SocketServerOptions options;
  options.path = longest;
  options.engine.workers = 1;
  serve::SocketServer server(options);
  ASSERT_TRUE(server.start());
  serve::Client client;
  ASSERT_TRUE(client.connect(longest));
  ASSERT_TRUE(client.send_line("ping"));
  auto pong = client.read_line();
  ASSERT_TRUE(pong) << pong.message();
  EXPECT_EQ(pong.value(), "pong");
  client.close();
  server.stop();
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "stop() must unlink the socket";
  std::filesystem::remove(dir);
}

// An oversized line is answered as soon as the budget is blown — even
// before its newline arrives — and the connection keeps working.
TEST(WarpdServer, OversizedLineAnsweredMidStream) {
  serve::SocketServerOptions options;
  options.path =
      common::format("/tmp/warpd_proto_ov_%d.sock", static_cast<int>(::getpid()));
  options.engine.workers = 1;
  options.engine.base = experiments::default_options();
  options.max_line_bytes = 256;
  serve::SocketServer server(options);
  ASSERT_TRUE(server.start());

  serve::Client client;
  ASSERT_TRUE(client.connect(options.path));
  // Half a KiB of junk with no newline: the err reply must arrive while
  // the "line" is still open.
  const std::string junk(1024, 'j');
  ASSERT_TRUE(client.send_raw(junk.substr(0, 512)));
  auto reply = client.read_line();
  ASSERT_TRUE(reply) << reply.message();
  auto parsed = serve::protocol::parse_reply(reply.value());
  ASSERT_TRUE(parsed) << reply.value();
  EXPECT_FALSE(parsed.value().ok);
  // Finish the oversized line, then use the same connection normally.
  ASSERT_TRUE(client.send_line(junk));
  ASSERT_TRUE(client.send_line("warp id=11 workload=g3fax"));
  client.shutdown_send();
  bool saw_ok = false;
  for (;;) {
    auto line = client.read_line();
    if (!line) break;
    auto r = serve::protocol::parse_reply(line.value());
    ASSERT_TRUE(r) << line.value();
    if (r.value().ok && r.value().id == 11) saw_ok = true;
  }
  EXPECT_TRUE(saw_ok);
  server.stop();
}

// A client that ignores "busy" and keeps hammering: every line still gets
// exactly one reply, post-drain requests are all shed with the drain retry
// hint, and the server stops cleanly. The burst behind the caps exercises
// the admission controller on the live wire path.
TEST(WarpdServer, HostileClientKeepsSendingAfterBusy) {
  serve::SocketServerOptions options;
  options.path =
      common::format("/tmp/warpd_proto_busy_%d.sock", static_cast<int>(::getpid()));
  options.engine.workers = 1;
  options.engine.admission.max_sessions = 2;
  options.engine.admission.busy_retry_ms = 10;
  options.engine.admission.busy_retry_cap_ms = 500;
  options.engine.base = experiments::default_options();
  serve::SocketServer server(options);
  ASSERT_TRUE(server.start());

  serve::Client client;
  ASSERT_TRUE(client.connect(options.path));
  std::size_t sent = 0;
  const std::size_t kBurst = 12;
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.send_line(
        common::format("warp id=%u workload=brev", static_cast<unsigned>(i))));
    ++sent;
  }
  ASSERT_TRUE(client.send_line("drain"));
  // Hostile: keep sending after the server said it is draining. Every one
  // of these must be shed with the deterministic drain hint.
  const std::size_t kAfterDrain = 4;
  for (std::size_t i = 0; i < kAfterDrain; ++i) {
    ASSERT_TRUE(client.send_line(
        common::format("warp id=%u workload=brev", static_cast<unsigned>(100 + i))));
    ++sent;
  }
  client.shutdown_send();

  std::size_t ok_replies = 0;
  std::size_t busy_replies = 0;
  std::size_t drain_busy = 0;
  bool saw_draining = false;
  for (std::size_t got = 0; got < sent + 1; ++got) {  // +1: the "draining" line
    auto line = client.read_line();
    ASSERT_TRUE(line) << "reply " << got << ": " << line.message();
    if (line.value() == "draining") {
      saw_draining = true;
      continue;
    }
    auto reply = serve::protocol::parse_reply(line.value());
    ASSERT_TRUE(reply) << line.value();
    switch (reply.value().status) {
      case serve::protocol::ReplyStatus::kOk:
        ++ok_replies;
        break;
      case serve::protocol::ReplyStatus::kBusy:
        ++busy_replies;
        if (reply.value().id >= 100) {
          ++drain_busy;
          EXPECT_EQ(reply.value().retry_after_ms,
                    options.engine.admission.busy_retry_cap_ms);
        } else {
          EXPECT_GE(reply.value().retry_after_ms, 1u);
        }
        break;
      default:
        ADD_FAILURE() << "unexpected reply: " << line.value();
    }
  }
  EXPECT_TRUE(saw_draining);
  EXPECT_EQ(drain_busy, kAfterDrain);
  EXPECT_EQ(ok_replies + busy_replies, sent);
  // The single-worker engine cannot finish a session in the microseconds
  // between burst submits, so the caps must have shed at least one on top
  // of the deterministic post-drain sheds.
  EXPECT_GE(busy_replies, kAfterDrain + 1);
  EXPECT_FALSE(client.read_line());
  server.stop();

  const auto engine_stats = server.engine().stats();
  EXPECT_EQ(engine_stats.completed, ok_replies);
  EXPECT_EQ(engine_stats.busy_rejected, busy_replies);
  EXPECT_TRUE(engine_stats.draining);
  EXPECT_LE(engine_stats.peak_sessions, 2u);
}

}  // namespace
}  // namespace warp
