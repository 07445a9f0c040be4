#pragma once

/// \file spans.hpp
/// In-memory span recorder of the traced run. A span sits around one call
/// the benchmark makes into a layer's public function: name, start, end,
/// the calling thread's CPU time inside it, the enclosing span and the
/// tuning session it served. One SpanLog per driver thread, so recording
/// takes no lock; the logs are merged and written when the run ends.
///
/// A Scope built with a null log records nothing, so the untraced runs
/// execute the same driver code with one pointer test per call site.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <vector>

namespace lynbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread.
[[nodiscard]] inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int32_t parent = -1;  ///< index in the same log; -1 = top level
  std::uint64_t session = 0;

  [[nodiscard]] double ms() const { return (end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread = 0) : thread_(thread) {
    spans_.reserve(1u << 16);
  }

  std::int32_t open(const char* name, std::uint64_t session) {
    Span s;
    s.name = name;
    s.session = session;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.cpu_ns = thread_cpu_ns();
    s.start_ns = now_ns();
    spans_.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void close(std::int32_t idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = now_ns();
    s.cpu_ns = thread_cpu_ns() - s.cpu_ns;
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint32_t thread() const { return thread_; }

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t session = 0)
      : log_(log), idx_(log != nullptr ? log->open(name, session) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

}  // namespace lynbench
