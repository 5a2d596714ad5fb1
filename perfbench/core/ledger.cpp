#include "core/ledger.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

double covered_seconds(std::vector<std::pair<double, double>> intervals,
                       double lo, double hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::map<int, const Span*> by_id;
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans) {
    by_id[span.id] = &span;
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, LayerTime> out;
  for (const Span& span : spans) {
    LayerTime& time = out[span.layer];
    ++time.count;
    bool nested = false;
    for (int up = span.parent; up >= 0;) {
      const auto it = by_id.find(up);
      if (it == by_id.end()) break;
      if (it->second->layer == span.layer) {
        nested = true;
        break;
      }
      up = it->second->parent;
    }
    if (nested) continue;
    time.busy += span.duration();
    const auto kids = children.find(span.id);
    const double covered =
        kids == children.end()
            ? 0.0
            : covered_seconds(kids->second, span.start, span.end);
    time.self += span.duration() - covered;
  }
  return out;
}

Ledger::Ledger(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Ledger::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Ledger::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Ledger::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

Ledger::Scope::Scope(Ledger& ledger, std::string layer, std::string name,
                     int op, int parent, int thread)
    : ledger_(ledger) {
  span_.layer = std::move(layer);
  span_.name = std::move(name);
  span_.op = op;
  span_.parent = parent;
  span_.thread = thread;
  if (ledger_.enabled_) span_.id = ledger_.next_id();
  span_.start = ledger_.now();
}

Ledger::Scope::~Scope() { close(); }

double Ledger::Scope::close() {
  if (open_) {
    open_ = false;
    span_.end = ledger_.now();
    if (ledger_.enabled_) ledger_.record(span_);
  }
  return span_.duration();
}

std::vector<Span> Ledger::spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

void Ledger::write_chrome_trace(std::ostream& out) const {
  plc::obs::JsonWriter json(out);
  json.begin_object();
  json.key("traceEvents").begin_array();
  for (const Span& span : spans()) {
    json.begin_object();
    json.field("name", span.layer + "." + span.name);
    json.field("cat", span.layer);
    json.field("ph", "X");
    json.field("pid", 1);
    json.field("tid", span.thread);
    json.field("ts", span.start * 1e6);
    json.field("dur", span.duration() * 1e6);
    json.key("args").begin_object();
    json.field("id", span.id);
    json.field("parent", span.parent);
    json.field("op", span.op);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.field("displayTimeUnit", "ms");
  json.end_object();
  out << "\n";
}

}  // namespace perfbench
