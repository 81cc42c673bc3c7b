#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

std::int64_t self_time_ns(std::int64_t start, std::int64_t end,
                          std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;  // end of the union swept so far
  for (auto [lo, hi] : children) {
    lo = std::max(lo, reach);
    hi = std::min(hi, end);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return (end - start) - covered;
}

int Tracer::open(std::string name, std::string tag) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{session_, std::move(name), std::move(tag), parent, now_ns(), 0});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close innermost first; an early exit may skip levels.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::add(std::string name, std::string tag, int parent, std::int64_t start_ns,
                 std::int64_t end_ns) {
  if (!enabled_) return;
  spans_.push_back(Span{session_, std::move(name), std::move(tag), parent, start_ns, end_ns});
}

std::vector<std::int64_t> Tracer::self_times_ns() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = self_time_ns(spans_[i].start_ns, spans_[i].end_ns, std::move(children[i]));
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"tag\": \"%s\", \"parent\": %d}}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.session),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tag.c_str(), s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
