#include "wallbench/trace_reduce.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/json.h"

namespace r3 {
namespace wallbench {

std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Sweep the span boundaries in time order. Between two boundaries the
  // innermost active span — largest start, then smallest record index —
  // gets the whole interval.
  struct Boundary {
    int64_t t;
    bool open;
    size_t idx;
  };
  std::vector<Boundary> bounds;
  bounds.reserve(spans.size() * 2);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].dur <= 0) continue;
    bounds.push_back({spans[i].start, true, i});
    bounds.push_back({spans[i].start + spans[i].dur, false, i});
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Boundary& a, const Boundary& b) { return a.t < b.t; });

  std::map<std::string, int64_t> self;
  // Ordered so that rbegin() is the innermost span: (start, -index).
  std::set<std::pair<int64_t, int64_t>> active;
  int64_t prev = 0;
  for (const Boundary& b : bounds) {
    if (!active.empty() && b.t > prev) {
      size_t inner = static_cast<size_t>(-active.rbegin()->second);
      self[spans[inner].layer] += b.t - prev;
    }
    prev = b.t;
    std::pair<int64_t, int64_t> key{spans[b.idx].start,
                                    -static_cast<int64_t>(b.idx)};
    if (b.open) {
      active.insert(key);
    } else {
      active.erase(key);
    }
  }
  return self;
}

std::string LayerOf(const std::string& category, const std::string& name) {
  if (category == "sql") {
    if (name == "execute") return "exec";
    if (name == "optimize") return "optimizer";
  }
  return category;
}

Status ParseChromeTrace(const std::string& doc, std::vector<Span>* sim,
                        std::vector<Span>* wall) {
  auto parsed = json::Parse(doc);
  if (!parsed.ok()) return parsed.status();
  const json::Value& events = parsed.value().Get("traceEvents");
  if (!events.is_array()) {
    return Status::InvalidArgument("not a trace_event document");
  }
  for (const json::Value& e : events.items()) {
    if (!e.is_object()) return Status::InvalidArgument("event is not an object");
    if (e.Get("ph").string_value() != "X") continue;
    std::string layer =
        LayerOf(e.Get("cat").string_value(), e.Get("name").string_value());
    const json::Value& args = e.Get("args");
    sim->push_back({layer, e.Get("ts").int_value(), e.Get("dur").int_value()});
    wall->push_back({std::move(layer), args.Get("wall_us").int_value(),
                     args.Get("wall_dur_us").int_value()});
  }
  return Status::OK();
}

Status TraceReducer::MaybeFlush(size_t max_buffered) {
  if (tracer_->event_count() <= max_buffered) return Status::OK();
  return Flush();
}

Status TraceReducer::Flush() {
  dropped_ += tracer_->dropped_events();
  if (tracer_->event_count() > 0) {
    if (!first_chunk_path_.empty()) {
      R3_RETURN_IF_ERROR(tracer_->WriteChromeJson(first_chunk_path_));
      first_chunk_path_.clear();
    }
    std::vector<Span> sim, wall;
    R3_RETURN_IF_ERROR(
        ParseChromeTrace(tracer_->ExportChromeJson(), &sim, &wall));
    events_ += static_cast<int64_t>(tracer_->event_count());
    for (const auto& [layer, us] : SelfTimes(sim)) sim_[layer] += us;
    for (const auto& [layer, us] : SelfTimes(wall)) wall_[layer] += us;
  }
  tracer_->Clear();
  return Status::OK();
}

Status TraceReducer::CheckNoDrops() const {
  size_t dropped = dropped_ + tracer_->dropped_events();
  if (dropped == 0) return Status::OK();
  return Status::Internal("tracer dropped " + std::to_string(dropped) +
                          " events; raise TraceOptions::max_events");
}

}  // namespace wallbench
}  // namespace r3
