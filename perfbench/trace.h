// Span recorder for the traced benchmark run.
//
// A span is one call into a layer, timed from outside the layer: name
// ("<layer>.<what>"), start, end, the span that was open on the calling
// thread when it began (its parent), and a request id shared by every span
// of one sampled request.  Spans live in memory and are written once, at
// exit, as tab-separated lines; fold_trace.py turns them into per-layer
// self time (a span's duration minus the part its children cover).
//
// When tracing is off a Span costs one relaxed load and a branch, so the
// untraced runs that produce the end-to-end metrics pay nothing else.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";  ///< string literal: "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// How many requests this span stands for: 1 for a span that is always
  /// recorded, 1/rate for one drawn from a sample of requests.
  double weight = 1.0;
};

class Tracer {
 public:
  static Tracer& global() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(const SpanRecord& span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  /// One line per span: id parent request name start_ns end_ns weight.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("trace: cannot write " + path);
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord& s : spans_) {
      out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.weight
          << '\n';
    }
    if (!out) throw std::runtime_error("trace: short write to " + path);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// The span open on this thread (0 = none); new spans take it as parent.
inline thread_local std::uint64_t t_open_span = 0;

/// RAII span.  `request` groups the spans of one sampled request; `weight`
/// is 1/sample-rate for sampled request spans.  A null name records nothing
/// (the request was not drawn into the sample).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0,
                double weight = 1.0) {
    if (name == nullptr || !Tracer::global().enabled()) return;
    rec_.id = Tracer::global().next_id();
    rec_.parent = t_open_span;
    rec_.request = request;
    rec_.name = name;
    rec_.weight = weight;
    rec_.start_ns = now_ns();
    t_open_span = rec_.id;
  }
  ~Span() {
    if (rec_.id == 0) return;
    rec_.end_ns = now_ns();
    t_open_span = rec_.parent;
    Tracer::global().record(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
};

/// Makes `parent` the open span of a worker thread for its lifetime, so the
/// worker's spans hang under the phase that started it.
class AdoptParent {
 public:
  explicit AdoptParent(std::uint64_t parent) : saved_(t_open_span) {
    t_open_span = parent;
  }
  ~AdoptParent() { t_open_span = saved_; }
  AdoptParent(const AdoptParent&) = delete;
  AdoptParent& operator=(const AdoptParent&) = delete;

 private:
  std::uint64_t saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
