// Tracing from outside the program: spans kept in memory and a planner
// decorator that times every IStrategy call. Nothing here reaches into
// src/ — the decorator forwards each virtual method of the public
// strategy interface, so a traced fleet plans exactly as an untraced one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/engine.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
  std::int64_t request = -1;  ///< request id where one is known
  double duration_s() const noexcept { return end_s - start_s; }
};

/// In-memory span store; written out once, after measuring.
class SpanLog {
 public:
  /// Opens a span and returns its index; close it with end().
  std::int64_t begin(const char* name, std::int64_t parent = -1, std::int64_t request = -1);
  void end(std::int64_t index);
  void add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations of every span with this name, in microseconds.
  std::vector<double> durations_us(const char* name) const;
  /// Writes one JSON object per span; false when the file cannot be opened.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// IStrategy decorator: records a "core.plan" span per plan() call and a
/// "core.event" span per on_node_event(), each parented to `parent()`.
class TimedStrategy final : public hidp::runtime::IStrategy {
 public:
  TimedStrategy(hidp::runtime::IStrategy& inner, SpanLog& log) : inner_(&inner), log_(&log) {}

  std::string name() const override { return inner_->name(); }
  hidp::runtime::PlanResult plan(const hidp::runtime::PlanRequest& request) override;
  bool supports_pipeline() const override { return inner_->supports_pipeline(); }
  void on_node_event(const hidp::runtime::NodeEvent& event) override;
  hidp::runtime::PlannerDeltaStats planner_stats() const override {
    return inner_->planner_stats();
  }

  /// Span new planner spans hang under (the workload's run span).
  void set_parent(std::int64_t parent) noexcept { parent_ = parent; }
  std::uint64_t plans() const noexcept { return plans_; }
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }

 private:
  hidp::runtime::IStrategy* inner_;
  SpanLog* log_;
  std::int64_t parent_ = -1;
  std::uint64_t plans_ = 0;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace perfbench
