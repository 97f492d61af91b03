// Spans recorded by the benchmark around its calls into the
// engine's layers.
//
// Each client thread owns one SpanRecorder; spans stay in memory until the
// run ends, then are written out as JSON and reduced to per-layer self
// times.  The spans of one statement share a statement id, and every span
// names its parent (-1 for the statement's root span).

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t stmt = 0;
  uint32_t id = 0;
  int32_t parent = -1;
  const char* name = "";
  int64_t start_ns = 0;  // since the recorder's epoch
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(Clock::time_point epoch, bool enabled)
      : epoch_(epoch), enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Starts a statement: later spans carry `stmt` until the next call.
  void BeginStatement(uint64_t stmt) {
    stmt_ = stmt;
    first_ = spans_.size();
  }
  /// Opens a span starting now; returns its id (-1 when disabled).
  int32_t Open(const char* name, int32_t parent);
  void Close(int32_t id);
  /// Adds a closed span with explicit bounds (a part the engine timed
  /// itself, such as execution inside Session::Query).
  void Add(const char* name, int32_t parent, int64_t start_ns,
           int64_t end_ns);
  int64_t StartOf(int32_t id) const { return spans_[first_ + id].start_ns; }
  int64_t EndOf(int32_t id) const { return spans_[first_ + id].end_ns; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  bool enabled_;
  uint64_t stmt_ = 0;
  size_t first_ = 0;
  std::vector<Span> spans_;
};

/// Self time of a span = its duration minus its children's durations.
/// Over a statement, the layer spans' self times (every span but the root)
/// must sum to the statement's wall time to within this share of it,
/// summed over the traced statements; the rest is the root's self time.
constexpr double kUnattributedTolerance = 0.05;

/// Self time per layer over every traced statement, and the check that
/// the layer spans account for the statements' wall time.
struct SelfTimeReport {
  std::map<std::string, double> self_ms;  // summed over statements
  size_t statements = 0;
  double wall_ms = 0;  // summed root-span durations
  /// Statements with a child span outside its parent's interval (an
  /// engine-reported time that does not fit the call that reported it).
  size_t violations = 0;
  /// The root span's own self time summed over statements: wall time that
  /// no layer span covers (the benchmark's own bookkeeping and the gaps
  /// between the calls).
  double unattributed_ms = 0;
  bool ok() const {
    return violations == 0 &&
           unattributed_ms <= kUnattributedTolerance * wall_ms;
  }
};

SelfTimeReport ComputeSelfTimes(
    const std::vector<const SpanRecorder*>& recorders);

/// Writes every span as {"spans": [...]} to `path`.
bool WriteSpansJson(const std::string& path,
                    const std::vector<const SpanRecorder*>& recorders);

}  // namespace perfbench
