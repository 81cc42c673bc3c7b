// In-memory span recorder for the traced benchmark run.
//
// The benchmark times each layer from outside: a span opens before a call
// into a module's public function and closes after it returns. Spans of
// one session share its id and nest by the call structure; a span's self
// time is its duration minus the part of it that its children cover.
// Spans stay in memory and are written out (Chrome trace-event JSON) when
// the run ends. A disabled tracer records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide epoch (the first call).
std::int64_t now_ns();

struct Span {
  std::uint64_t session = 0;
  std::string name;  // layer metric prefix, e.g. "sim.sw_run"
  std::string tag;   // kernel name for per-kernel layers (hwsim.exec)
  int parent = -1;   // index into the tracer's spans, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Duration of [start, end) minus the union of the child intervals clipped
/// to it. Children may overlap each other; the result is never negative.
std::int64_t self_time_ns(std::int64_t start, std::int64_t end,
                          std::vector<std::pair<std::int64_t, std::int64_t>> children);

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Subsequent spans belong to session `id`.
  void begin_session(std::uint64_t id) { session_ = id; }

  /// Open a span as a child of the innermost open one; -1 when disabled.
  int open(std::string name, std::string tag = {});
  void close(int index);
  /// Record a finished span under `parent` (-1: a root).
  void add(std::string name, std::string tag, int parent, std::int64_t start_ns,
           std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span, by index.
  std::vector<std::int64_t> self_times_ns() const;
  /// Write the spans as Chrome trace-event JSON; false if the file fails.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t session_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string tag = {})
      : tracer_(tracer), index_(tracer.open(std::move(name), std::move(tag))) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
