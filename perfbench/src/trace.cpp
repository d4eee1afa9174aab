#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common.hpp"

namespace perfbench {

std::int64_t SpanLog::begin(const char* name, std::int64_t parent, std::int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_s = wall_s();
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t index) { spans_[static_cast<std::size_t>(index)].end_s = wall_s(); }

std::vector<double> SpanLog::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) out.push_back(span.duration_s() * 1e6);
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                  "\"parent\":%lld,\"request\":%lld}\n",
                  i, s.name, s.start_s, s.end_s, static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    out << line;
  }
  return static_cast<bool>(out);
}

hidp::runtime::PlanResult TimedStrategy::plan(const hidp::runtime::PlanRequest& request) {
  Span span;
  span.name = "core.plan";
  span.parent = parent_;
  span.start_s = wall_s();
  hidp::runtime::PlanResult result = inner_->plan(request);
  span.end_s = wall_s();
  log_->add(span);
  ++plans_;
  if (result.cache_hit) ++cache_hits_;
  return result;
}

void TimedStrategy::on_node_event(const hidp::runtime::NodeEvent& event) {
  Span span;
  span.name = "core.event";
  span.parent = parent_;
  span.start_s = wall_s();
  inner_->on_node_event(event);
  span.end_s = wall_s();
  log_->add(span);
}

}  // namespace perfbench
